// Package resolver simulates the population of public DoX resolvers the
// paper measures: recursive resolvers reachable over all five DNS
// transports, with deployment characteristics matching §3 of the paper:
//
//   - QUIC versions: 89.1% v1, 8.5% draft-34, 1.8% draft-32, 0.6% draft-29;
//   - DoQ versions: 87.4% doq-i02, 10.8% doq-i03, 1.8% doq-i00;
//   - TLS: ~99% TLS 1.3, the rest TLS 1.2;
//   - Session Resumption with the 7-day maximum ticket lifetime: all;
//   - 0-RTT, TCP Fast Open, edns-tcp-keepalive: none;
//   - certificate chains of varying size, a minority exceeding QUIC's
//     amplification budget (the paper's preliminary-work +1 RTT effect);
//   - an answer cache (cache-warming queries make the follow-up
//     measurement a cache hit) and recursive-lookup latency for misses;
//   - a small probability of not answering a query at all, producing the
//     sample-size variation visible in Table 1.
package resolver

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/quic"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

// Profile describes one simulated resolver's deployment.
type Profile struct {
	Name  string
	Addr  netip.Addr
	Place geo.Place

	// Supports lists the transports this resolver serves. The 313
	// verified DoX resolvers support all five.
	Supports map[dox.Protocol]bool

	QUICVersion   uint32
	DoQALPN       string
	DoQPort       uint16 // 853, or 784/8853 for early-draft deployments
	TLS12Only     bool
	CertChainSize int
	// AcceptEarlyData is false for every public resolver in the paper;
	// the E11 ablation turns it on.
	AcceptEarlyData bool

	// ResponseRate is the probability a query is answered at all.
	ResponseRate float64
	// ProcessingDelay is the per-query server-side cost for cache hits.
	ProcessingDelay time.Duration
	// RecursiveRTT is the extra latency of a cache miss (upstream
	// lookups to authoritative servers).
	RecursiveRTT time.Duration
	// CacheTTL bounds how long answers stay cached.
	CacheTTL time.Duration
}

// PopulationParams controls profile synthesis.
type PopulationParams struct {
	// BigCertFraction is the share of resolvers whose certificate chain
	// exceeds the QUIC amplification budget (~40% in the paper's
	// preliminary work).
	BigCertFraction float64
	// ResponseRate defaults to 0.985.
	ResponseRate float64
}

// DefaultPopulation matches the paper.
func DefaultPopulation() PopulationParams {
	return PopulationParams{BigCertFraction: 0.4, ResponseRate: 0.985}
}

// SynthesizeProfile draws one resolver profile from the paper's §3
// distributions.
func SynthesizeProfile(rng *rand.Rand, name string, addr netip.Addr, place geo.Place, p PopulationParams) Profile {
	prof := Profile{
		Name:  name,
		Addr:  addr,
		Place: place,
		// Verified resolvers serve the paper's five transports; DoH3 is
		// assumed wherever DoH is deployed (the HTTP stack upgrade rides
		// the existing QUIC endpoint), which is what E13–E15 measure.
		Supports: map[dox.Protocol]bool{
			dox.DoUDP: true, dox.DoTCP: true, dox.DoQ: true, dox.DoH: true, dox.DoT: true,
			dox.DoH3: true,
		},
		DoQPort:         dox.PortDoQ,
		ResponseRate:    p.ResponseRate,
		ProcessingDelay: time.Duration(200+rng.Intn(600)) * time.Microsecond,
		RecursiveRTT:    time.Duration(30+rng.Intn(120)) * time.Millisecond,
		CacheTTL:        300 * time.Second,
	}
	switch f := rng.Float64(); {
	case f < 0.891:
		prof.QUICVersion = quic.Version1
	case f < 0.891+0.085:
		prof.QUICVersion = quic.VersionDraft34
	case f < 0.891+0.085+0.018:
		prof.QUICVersion = quic.VersionDraft32
	default:
		prof.QUICVersion = quic.VersionDraft29
	}
	switch f := rng.Float64(); {
	case f < 0.874:
		prof.DoQALPN = "doq-i02"
	case f < 0.874+0.108:
		prof.DoQALPN = "doq-i03"
	default:
		prof.DoQALPN = "doq-i00"
	}
	prof.TLS12Only = rng.Float64() < 0.01
	if rng.Float64() < p.BigCertFraction {
		prof.CertChainSize = 4000 + rng.Intn(1800)
	} else {
		prof.CertChainSize = 900 + rng.Intn(1600)
	}
	return prof
}

// Resolver is a running simulated resolver.
type Resolver struct {
	Profile
	host   *netem.Host
	w      *sim.World
	rng    *rand.Rand
	server *dox.Server
	// cache is the resolver's shared answer cache: every transport
	// endpoint feeds the same TTL-aware cache, which is what makes a
	// warming query over one transport a hit for the measured query.
	cache *cache.Cache

	// Queries counts handled queries per protocol.
	Queries map[dox.Protocol]int
	// Dropped counts deliberately unanswered queries.
	Dropped int
}

// Start brings the resolver up on its host, serving the supported
// transports.
func Start(host *netem.Host, prof Profile, rng *rand.Rand) (*Resolver, error) {
	w := host.World()
	r := &Resolver{
		Profile: prof,
		host:    host,
		w:       w,
		rng:     rng,
		cache:   cache.New(w.Now, 0),
		Queries: make(map[dox.Protocol]int),
	}
	identity := tlsmini.GenerateIdentity(rng, prof.Name, prof.CertChainSize)
	var tlsVersion tlsmini.Version
	if prof.TLS12Only {
		tlsVersion = tlsmini.VersionTLS12
	}
	cfg := dox.ServerConfig{
		Handler:         r.handle,
		Identity:        identity,
		TicketStore:     tlsmini.NewTicketStore(),
		AcceptEarlyData: prof.AcceptEarlyData,
		TLSVersion:      tlsVersion,
		QUICVersions:    []uint32{prof.QUICVersion},
		DoQALPN:         prof.DoQALPN,
		DoQPort:         prof.DoQPort,
		TokenKey:        []byte(prof.Name + "-token-key"),
	}
	r.server = dox.NewServer(simnet.New(host, rng), cfg)
	type ent struct {
		p  dox.Protocol
		fn func() error
	}
	for _, e := range []ent{
		{dox.DoUDP, r.server.ServeUDP},
		{dox.DoTCP, r.server.ServeTCP},
		{dox.DoT, r.server.ServeDoT},
		{dox.DoH, r.server.ServeDoH},
		{dox.DoQ, r.server.ServeDoQ},
		{dox.DoH3, r.server.ServeDoH3},
	} {
		if !prof.Supports[e.p] {
			continue
		}
		if err := e.fn(); err != nil {
			return nil, fmt.Errorf("resolver %s: %w", prof.Name, err)
		}
	}
	return r, nil
}

// handle implements the recursive resolver: answer from cache, otherwise
// simulate upstream recursion, with a small unresponsiveness probability.
func (r *Resolver) handle(q *dnsmsg.Message, proto dox.Protocol, _ netip.AddrPort) *dnsmsg.Message {
	r.Queries[proto]++
	if r.rng.Float64() > r.ResponseRate {
		r.Dropped++
		return nil
	}
	r.w.Sleep(r.ProcessingDelay)
	if len(q.Questions) == 0 {
		resp := dnsmsg.Reply(*q)
		resp.RCode = dnsmsg.RCodeFormErr
		return &resp
	}
	question := q.Questions[0]
	key := cache.Key{Name: question.Name, Type: question.Type}
	entry, ok := r.cache.Lookup(key)
	if !ok {
		r.w.Sleep(r.RecursiveRTT)
		entry = r.cache.Put(key, SyntheticAddr(question.Name), r.CacheTTL)
	}
	resp := dnsmsg.Reply(*q)
	// The advertised TTL is the entry's remaining lifetime, so
	// downstream (stub) caches expire in lockstep with this resolver.
	resp.AnswerA(entry.Addr, cache.TTLSeconds(entry.Remaining(r.w.Now())))
	return &resp
}

// CacheStats returns the shared answer cache's counters.
func (r *Resolver) CacheStats() cache.Stats { return r.cache.Stats() }

// FlushCache clears the answer cache, keeping its statistics (used
// between measurement rounds and by the uncached-baseline ablation).
func (r *Resolver) FlushCache() { r.cache.Flush() }

// Close stops all transports.
func (r *Resolver) Close() { r.server.Close() }

// SyntheticAddr derives a stable public-looking address for a DNS name,
// standing in for the real records the authoritative DNS would serve.
func SyntheticAddr(name string) netip.Addr {
	h := fnv.New32a()
	h.Write([]byte(name))
	v := h.Sum32()
	return netip.AddrFrom4([4]byte{198, byte(18 + v%2), byte(v >> 8), byte(v)})
}
