// Package scan reimplements the paper's resolver-discovery methodology
// (§2): a ZMap-style probe of candidate addresses on the proposed DoQ
// ports (UDP 784, 853, 8853) using a QUIC Initial with the invalid
// version 0 — a responding host reveals itself with a Version Negotiation
// packet without any state being created — followed by an ALPN-verifying
// DoQ handshake, and finally per-protocol DNSPerf-style checks that
// produce the verified DoX funnel:
//
//	1216 DoQ resolvers -> DoUDP 548 / DoTCP 706 / DoT 1149 / DoH 732
//	-> 313 supporting every protocol ("verified DoX resolvers").
//
// Beyond the paper, the funnel also probes DoH3 (assumed deployed
// wherever DoH is; see PlanPopulation) and reports its support count,
// but the "verified" intersection stays the paper's four-transport
// definition.
//
// The funnel runs as a sharded campaign (RunFunnel): the population is
// planned once, split into contiguous target blocks, and each block is
// probed inside its own World on the internal/campaign worker pool; the
// per-shard funnels merge additively, independent of parallelism.
package scan

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/campaign"
	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/quic"
	"repro/internal/resolver"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

// DoQPorts are the proposed DoQ ports the paper scans.
var DoQPorts = []uint16{784, 853, 8853}

// PopulationSpec describes the synthetic scan population.
type PopulationSpec struct {
	// DoQResolvers respond to the QUIC probe and verify the DoQ ALPN.
	DoQResolvers int
	// QUICNonDoQ speak QUIC (e.g. HTTP/3 frontends) but refuse the DoQ
	// ALPN.
	QUICNonDoQ int
	// Deaf addresses do not respond at all.
	Deaf int
	// Support gives, for each non-DoQ transport, how many of the DoQ
	// resolvers also support it.
	Support map[dox.Protocol]int
	// FullIntersection is the number of resolvers supporting everything.
	FullIntersection int
}

// PaperSpec reproduces the week-14-2022 numbers.
func PaperSpec() PopulationSpec {
	return PopulationSpec{
		DoQResolvers: 1216,
		QUICNonDoQ:   180,
		Deaf:         300,
		Support: map[dox.Protocol]int{
			dox.DoUDP: 548,
			dox.DoTCP: 706,
			dox.DoT:   1149,
			dox.DoH:   732,
		},
		FullIntersection: 313,
	}
}

// Scaled shrinks the spec by keeping proportions (at least the
// intersection stays consistent).
func (s PopulationSpec) Scaled(factor int) PopulationSpec {
	if factor <= 1 {
		return s
	}
	out := PopulationSpec{
		DoQResolvers:     s.DoQResolvers / factor,
		QUICNonDoQ:       s.QUICNonDoQ / factor,
		Deaf:             s.Deaf / factor,
		Support:          map[dox.Protocol]int{},
		FullIntersection: s.FullIntersection / factor,
	}
	for p, n := range s.Support {
		out.Support[p] = n / factor
	}
	return out
}

// AssignSupport distributes protocol support over n DoQ resolvers such
// that exactly spec.FullIntersection of them support all four other
// transports and the per-protocol totals match spec.Support. No resolver
// outside the intersection supports all four (otherwise the verified
// count would exceed the target).
func AssignSupport(rng *rand.Rand, spec PopulationSpec) ([]map[dox.Protocol]bool, error) {
	n := spec.DoQResolvers
	full := spec.FullIntersection
	if full > n {
		return nil, fmt.Errorf("scan: intersection %d exceeds population %d", full, n)
	}
	protos := []dox.Protocol{dox.DoUDP, dox.DoTCP, dox.DoT, dox.DoH}
	remaining := map[dox.Protocol]int{}
	for _, p := range protos {
		r := spec.Support[p] - full
		if r < 0 {
			return nil, fmt.Errorf("scan: %v support %d below intersection %d", p, spec.Support[p], full)
		}
		if r > n-full {
			return nil, fmt.Errorf("scan: %v support %d unsatisfiable", p, spec.Support[p])
		}
		remaining[p] = r
	}
	out := make([]map[dox.Protocol]bool, n)
	for i := range out {
		out[i] = map[dox.Protocol]bool{dox.DoQ: true}
	}
	perm := rng.Perm(n)
	for i := 0; i < full; i++ {
		for _, p := range protos {
			out[perm[i]][p] = true
		}
	}
	// The rest get at most 3 of the 4 transports, drawn from those with
	// the largest remaining need.
	rest := perm[full:]
	for _, idx := range rest {
		// Order protocols by remaining need, descending.
		order := append([]dox.Protocol(nil), protos...)
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				if remaining[order[j]] > remaining[order[i]] {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		assigned := 0
		for _, p := range order {
			if assigned == 3 || remaining[p] == 0 {
				continue
			}
			// Assign greedily but probabilistically, to spread support.
			need := 0
			for _, q := range protos {
				need += remaining[q]
			}
			if rng.Float64() < float64(remaining[p]*3)/float64(need+1) || remaining[p] >= len(rest) {
				out[idx][p] = true
				remaining[p]--
				assigned++
			}
		}
	}
	// Force-place leftovers onto hosts with spare capacity.
	for _, p := range protos {
		for remaining[p] > 0 {
			placed := false
			for _, idx := range rest {
				if out[idx][p] {
					continue
				}
				count := 0
				for _, q := range protos {
					if out[idx][q] {
						count++
					}
				}
				if count >= 3 {
					continue
				}
				out[idx][p] = true
				remaining[p]--
				placed = true
				if remaining[p] == 0 {
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf("scan: could not place %v support", p)
			}
		}
	}
	return out, nil
}

// Target is one scannable address.
type Target struct {
	Addr     netip.Addr
	DoQPort  uint16
	Supports map[dox.Protocol]bool
	Place    geo.Place
}

// Population is a running set of scan targets.
type Population struct {
	Targets []*Target
	Spec    PopulationSpec
}

// targetKind classifies a planned scan target.
type targetKind uint8

const (
	kindDoQ targetKind = iota
	kindQUICNonDoQ
	kindDeaf
)

// TargetPlan is the World-free description of one scan target: its
// address, port, protocol support, and place. Planning consumes all
// population randomness up front so that any contiguous block of the
// plan can be instantiated inside a private shard World.
type TargetPlan struct {
	Addr     netip.Addr
	DoQPort  uint16
	Kind     targetKind
	Supports map[dox.Protocol]bool
	Place    geo.Place
}

// PlanPopulation draws the full scan population from rng without
// touching a World.
func PlanPopulation(rng *rand.Rand, spec PopulationSpec) ([]TargetPlan, error) {
	support, err := AssignSupport(rng, spec)
	if err != nil {
		return nil, err
	}
	places := geo.PlaceResolvers(rng, resolver.ScaledCounts(spec.DoQResolvers))
	var plans []TargetPlan
	next := 0
	addrFor := func() netip.Addr {
		a := netip.AddrFrom4([4]byte{100, byte(64 + next/60000), byte(next / 250 % 240), byte(next % 250)})
		next++
		return a
	}
	for i := 0; i < spec.DoQResolvers; i++ {
		port := DoQPorts[1] // 853 dominates
		switch {
		case rng.Float64() < 0.06:
			port = DoQPorts[0]
		case rng.Float64() < 0.06:
			port = DoQPorts[2]
		}
		// DoH3 deploys wherever DoH does: the HTTP/3 endpoint is the
		// same HTTP stack behind the resolver's existing QUIC machinery,
		// so its support set mirrors DoH's (no extra randomness drawn —
		// the paper-exact funnel stays untouched).
		support[i][dox.DoH3] = support[i][dox.DoH]
		plans = append(plans, TargetPlan{
			Addr:     addrFor(),
			DoQPort:  port,
			Kind:     kindDoQ,
			Supports: support[i],
			Place:    places[i%len(places)],
		})
	}
	for i := 0; i < spec.QUICNonDoQ; i++ {
		plans = append(plans, TargetPlan{Addr: addrFor(), DoQPort: 853, Kind: kindQUICNonDoQ})
	}
	for i := 0; i < spec.Deaf; i++ {
		plans = append(plans, TargetPlan{Addr: addrFor(), Kind: kindDeaf})
	}
	return plans, nil
}

// BuildTargets instantiates plans[lo:hi] as running hosts on net. Each
// target's identity randomness derives from (seed, global plan index),
// so a target behaves identically whether it is built as part of the
// whole population or inside a single shard's partition.
func BuildTargets(net *netem.Network, seed int64, plans []TargetPlan, lo, hi int) ([]*Target, error) {
	w := net.World
	answer := func(q *dnsmsg.Message, _ dox.Protocol, _ netip.AddrPort) *dnsmsg.Message {
		r := dnsmsg.Reply(*q)
		r.AnswerA(netip.AddrFrom4([4]byte{198, 18, 0, 1}), 300)
		return &r
	}
	var targets []*Target
	for gi := lo; gi < hi; gi++ {
		p := plans[gi]
		host := net.Host(p.Addr)
		rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, uint64(gi))))
		switch p.Kind {
		case kindDoQ:
			tgt := &Target{
				Addr:     p.Addr,
				DoQPort:  p.DoQPort,
				Supports: p.Supports,
				Place:    p.Place,
			}
			cfg := dox.ServerConfig{
				Handler:     answer,
				Identity:    tlsmini.GenerateIdentity(rng, fmt.Sprintf("scan-%d", gi), 1100),
				TicketStore: tlsmini.NewTicketStore(),
				DoQPort:     p.DoQPort,
			}
			srv := dox.NewServer(simnet.New(host, rng), cfg)
			type ent struct {
				on bool
				fn func() error
			}
			for _, e := range []ent{
				{true, srv.ServeDoQ},
				{tgt.Supports[dox.DoUDP], srv.ServeUDP},
				{tgt.Supports[dox.DoTCP], srv.ServeTCP},
				{tgt.Supports[dox.DoT], srv.ServeDoT},
				{tgt.Supports[dox.DoH], srv.ServeDoH},
				{tgt.Supports[dox.DoH3], srv.ServeDoH3},
			} {
				if !e.on {
					continue
				}
				if err := e.fn(); err != nil {
					return nil, err
				}
			}
			targets = append(targets, tgt)
		case kindQUICNonDoQ:
			// QUIC speaker without the DoQ ALPN (an HTTP/3 frontend).
			_, err := quic.Listen(host, 853, quic.Config{
				ALPN:        []string{"h3"},
				Identity:    tlsmini.GenerateIdentity(rng, fmt.Sprintf("h3-%d", gi), 1100),
				TicketStore: tlsmini.NewTicketStore(),
				Rand:        rng,
				Now:         w.Now,
			})
			if err != nil {
				return nil, err
			}
			targets = append(targets, &Target{Addr: p.Addr, DoQPort: 853})
		case kindDeaf:
			targets = append(targets, &Target{Addr: p.Addr}) // host exists, nothing listens
		}
	}
	return targets, nil
}

// FunnelResult is the scan outcome (paper §2).
type FunnelResult struct {
	Probed         int
	QUICResponsive int
	DoQVerified    int
	Support        map[dox.Protocol]int
	Verified       int // full intersection
	ByContinent    map[geo.Continent]int
	ByASN          map[string]int
}

// FunnelConfig parameterizes a sharded scan campaign.
type FunnelConfig struct {
	Seed int64
	Spec PopulationSpec
	// Parallelism caps the worker pool (0 = GOMAXPROCS); it never
	// affects the funnel result.
	Parallelism int
}

// Probe timing: every probe path has a uniform delay and no loss (the
// funnel must be exact), and each probe is bounded by probeTimeout.
const (
	probePathDelay = 40 * time.Millisecond
	probeTimeout   = 2 * time.Second
)

// targetBlock is the shard granularity in targets. Part of the shard
// plan: changing it changes shard seeds.
const targetBlock = 256

// RunFunnel executes the discovery scan as a sharded campaign: the
// population is planned once (a pure function of Seed and Spec), split
// into contiguous target blocks, and every block is probed inside a
// private World on the campaign worker pool. Per-shard funnels merge
// additively in shard order, so the result is identical at any
// parallelism level.
func RunFunnel(cfg FunnelConfig) (FunnelResult, error) {
	planRng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, 0x5CA4)))
	plans, err := PlanPopulation(planRng, cfg.Spec)
	if err != nil {
		return FunnelResult{}, err
	}
	identitySeed := sim.DeriveSeed(cfg.Seed, 0x1DE47)
	blocks := campaign.Blocks(len(plans), targetBlock)
	parts, err := campaign.RunErr(cfg.Seed, len(blocks), cfg.Parallelism, func(s campaign.Shard) (FunnelResult, error) {
		blk := blocks[s.Index]
		w := sim.NewWorld(s.Seed)
		net := netem.NewNetwork(w)
		net.SetDefaultPath(netem.PathParams{Delay: probePathDelay})
		targets, err := BuildTargets(net, identitySeed, plans, blk.Lo, blk.Hi)
		if err != nil {
			return FunnelResult{}, err
		}
		scanner := &Scanner{
			Host: net.Host(netip.AddrFrom4([4]byte{10, 99, 0, 1})),
			Rand: rand.New(rand.NewSource(sim.DeriveSeed(s.Seed, 0x5C))),
		}
		var res FunnelResult
		w.Go(func() { res = scanner.Run(&Population{Targets: targets, Spec: cfg.Spec}) })
		w.Run()
		// Per-shard World: reap parked target/server goroutines before
		// dropping it, or they outlive the shard for the whole process.
		w.Shutdown()
		return res, nil
	})
	if err != nil {
		return FunnelResult{}, err
	}
	var merged FunnelResult
	merged.Support = map[dox.Protocol]int{}
	merged.ByContinent = map[geo.Continent]int{}
	merged.ByASN = map[string]int{}
	for _, res := range parts {
		merged.Probed += res.Probed
		merged.QUICResponsive += res.QUICResponsive
		merged.DoQVerified += res.DoQVerified
		merged.Verified += res.Verified
		for proto, n := range res.Support {
			merged.Support[proto] += n
		}
		for c, n := range res.ByContinent {
			merged.ByContinent[c] += n
		}
		for as, n := range res.ByASN {
			merged.ByASN[as] += n
		}
	}
	return merged, nil
}

// Scanner runs the discovery pipeline from one host.
type Scanner struct {
	Host *netem.Host
	Rand *rand.Rand
}

// Run scans all targets (in parallel, ZMap style) and builds the funnel.
func (s *Scanner) Run(pop *Population) FunnelResult {
	w := s.Host.World()
	res := FunnelResult{
		Probed:      len(pop.Targets),
		Support:     map[dox.Protocol]int{},
		ByContinent: map[geo.Continent]int{},
		ByASN:       map[string]int{},
	}
	wg := sim.NewWaitGroup(w)
	for _, tgt := range pop.Targets {
		tgt := tgt
		wg.Add(1)
		w.Go(func() {
			defer wg.Done()
			port, ok := s.probeQUIC(tgt)
			if !ok {
				return
			}
			res.QUICResponsive++
			if !s.verifyDoQ(tgt, port) {
				return
			}
			res.DoQVerified++
			all := true
			// DoH3 is probed alongside the paper's four but kept out of
			// the "verified" intersection, which stays paper-defined.
			for _, proto := range []dox.Protocol{dox.DoUDP, dox.DoTCP, dox.DoT, dox.DoH, dox.DoH3} {
				if s.checkDoX(tgt, proto) {
					res.Support[proto]++
				} else if proto != dox.DoH3 {
					all = false
				}
			}
			if all {
				res.Verified++
				res.ByContinent[tgt.Place.Continent]++
				res.ByASN[tgt.Place.ASN]++
			}
		})
	}
	wg.Wait()
	res.Support[dox.DoQ] = res.DoQVerified
	return res
}

// probeQUIC sends the ZMap trick: a QUIC Initial with version 0; any
// QUIC endpoint answers with Version Negotiation without creating state.
func (s *Scanner) probeQUIC(tgt *Target) (uint16, bool) {
	for _, port := range DoQPorts {
		sock := s.Host.Dial(netem.ProtoUDP, 8)
		probe := buildVersionProbe(s.Rand)
		sock.Send(netip.AddrPortFrom(tgt.Addr, port), probe)
		d, ok := sock.RecvTimeout(probeTimeout)
		sock.Close()
		if !ok {
			continue
		}
		if len(d.Payload) >= 5 && d.Payload[0]&0x80 != 0 &&
			binary.BigEndian.Uint32(d.Payload[1:5]) == 0 {
			return port, true
		}
	}
	return 0, false
}

// buildVersionProbe crafts a long-header packet with version 0.
func buildVersionProbe(rng *rand.Rand) []byte {
	b := []byte{0x80}
	b = binary.BigEndian.AppendUint32(b, 0) // invalid version
	dcid := make([]byte, 8)
	rng.Read(dcid)
	b = append(b, 8)
	b = append(b, dcid...)
	scid := make([]byte, 8)
	rng.Read(scid)
	b = append(b, 8)
	b = append(b, scid...)
	// Pad to the minimum Initial datagram size, as ZMap's QUIC probe
	// module does.
	for len(b) < quic.MinInitialDatagram {
		b = append(b, 0)
	}
	return b
}

// verifyDoQ attempts a handshake offering the DoQ ALPN set.
func (s *Scanner) verifyDoQ(tgt *Target, port uint16) bool {
	type result struct{ ok bool }
	f := sim.NewFuture[result](s.Host.World(), "scan-verify")
	s.Host.World().Go(func() {
		conn, err := quic.Dial(s.Host, netip.AddrPortFrom(tgt.Addr, port), quic.Config{
			ALPN:       dox.AllDoQALPNs(),
			ServerName: tgt.Addr.String(),
			Rand:       s.Rand,
			Now:        s.Host.World().Now,
		})
		if err != nil {
			f.Resolve(result{false})
			return
		}
		conn.Close()
		f.Resolve(result{true})
	})
	r, ok := f.WaitTimeout(probeTimeout)
	return ok && r.ok
}

// checkDoX optimistically queries the target over one transport, like
// the paper's DNSPerf verification.
func (s *Scanner) checkDoX(tgt *Target, proto dox.Protocol) bool {
	w := s.Host.World()
	type result struct{ ok bool }
	f := sim.NewFuture[result](w, "scan-dox")
	w.Go(func() {
		c, err := dox.Connect(proto, dox.Options{
			Backend:    simnet.New(s.Host, s.Rand),
			Resolver:   tgt.Addr,
			ServerName: tgt.Addr.String(),
			UDPTimeout: probeTimeout,
		})
		if err != nil {
			f.Resolve(result{false})
			return
		}
		q := dnsmsg.NewQuery(uint16(s.Rand.Intn(65536)), "example.com", dnsmsg.TypeA)
		_, err = c.Query(&q)
		c.Close()
		f.Resolve(result{err == nil})
	})
	r, ok := f.WaitTimeout(10 * probeTimeout)
	return ok && r.ok
}
