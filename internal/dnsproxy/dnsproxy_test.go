package dnsproxy

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cache"
	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/resolver"
	"repro/internal/sim"
)

func setup(t *testing.T, upstream dox.Protocol, mut func(*Config)) (*resolver.Universe, *Proxy) {
	t.Helper()
	return setupFull(t, upstream, nil, mut)
}

// setupFull is setup with control over the universe too (path phases,
// profile mutation) for the serving-semantics tests.
func setupFull(t *testing.T, upstream dox.Protocol, umut func(*resolver.UniverseConfig), mut func(*Config)) (*resolver.Universe, *Proxy) {
	t.Helper()
	ucfg := resolver.UniverseConfig{
		Seed:           21,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1},
		Loss:           0,
	}
	if umut != nil {
		umut(&ucfg)
	}
	u, err := resolver.NewUniverse(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	vp, res := u.Vantages[0], u.Resolvers[0]
	cfg := Config{
		Upstream: upstream,
		Options: dox.Options{
			Resolver:   res.Addr,
			ServerName: res.Name,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(vp.Backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u, p
}

// stubQuery performs a stub-style lookup through the proxy.
func stubQuery(u *resolver.Universe, proxyAddr netip.AddrPort, id uint16, name string, timeout time.Duration) (*dnsmsg.Message, bool) {
	host := u.Vantages[0].Host
	sock := host.Dial(netem.ProtoUDP, 8)
	defer sock.Close()
	q := dnsmsg.NewQuery(id, name, dnsmsg.TypeA)
	sock.Send(proxyAddr, q.Encode())
	d, ok := sock.RecvTimeout(timeout)
	if !ok {
		return nil, false
	}
	resp, err := dnsmsg.Decode(d.Payload)
	return resp, err == nil
}

func TestForwardsOverEachUpstream(t *testing.T) {
	for _, proto := range dox.Protocols {
		u, p := setup(t, proto, nil)
		var ok bool
		u.W.Go(func() {
			_, ok = stubQuery(u, p.Addr(), 1, "example.org", 10*time.Second)
		})
		u.W.Run()
		if !ok {
			t.Errorf("%v: no response through proxy", proto)
		}
		if p.Queries != 1 {
			t.Errorf("%v: proxy counted %d queries", proto, p.Queries)
		}
	}
}

func TestConnectionReuseAcrossQueries(t *testing.T) {
	u, p := setup(t, dox.DoQ, nil)
	var times [3]time.Duration
	u.W.Go(func() {
		for i := range times {
			start := u.W.Now()
			if _, ok := stubQuery(u, p.Addr(), uint16(i+1), "example.org", 10*time.Second); !ok {
				t.Error("query failed")
				return
			}
			times[i] = u.W.Now() - start
		}
	})
	u.W.Run()
	// First query pays the upstream handshake; later ones reuse the
	// session and should be roughly half as slow (1 RTT vs 2).
	if times[1] >= times[0] || times[2] >= times[0] {
		t.Errorf("no reuse benefit: %v", times)
	}
}

func TestResetSessionsKeepsResumptionState(t *testing.T) {
	u, p := setup(t, dox.DoQ, nil)
	var second *dox.Metrics
	u.W.Go(func() {
		if _, ok := stubQuery(u, p.Addr(), 1, "example.org", 10*time.Second); !ok {
			t.Error("warm query failed")
			return
		}
		p.ResetSessions()
		if _, ok := stubQuery(u, p.Addr(), 2, "example.org", 10*time.Second); !ok {
			t.Error("post-reset query failed")
			return
		}
		second = p.primary.Metrics()
	})
	u.W.Run()
	if second == nil {
		t.Fatal("no upstream metrics")
	}
	if !second.UsedResumption {
		t.Error("post-reset upstream session did not resume")
	}
	if !second.UsedToken {
		t.Error("post-reset DoQ session did not reuse the address-validation token")
	}
}

func TestDoTInFlightBugAndFix(t *testing.T) {
	run := func(fixed bool) int {
		u, p := setup(t, dox.DoT, func(c *Config) { c.FixDoTReuse = fixed })
		u.W.Go(func() {
			// Prime the primary connection.
			stubQuery(u, p.Addr(), 1, "seed.example", 10*time.Second)
			// Fire several concurrent queries: with the bug, in-flight
			// detection opens extra connections.
			wg := sim.NewWaitGroup(u.W)
			for i := 0; i < 4; i++ {
				i := i
				wg.Add(1)
				u.W.Go(func() {
					defer wg.Done()
					stubQuery(u, p.Addr(), uint16(10+i), "concurrent.example", 10*time.Second)
				})
			}
			wg.Wait()
		})
		u.W.Run()
		return p.ExtraConnections
	}
	if extra := run(false); extra == 0 {
		t.Error("buggy mode opened no extra connections under concurrency")
	}
	if extra := run(true); extra != 0 {
		t.Errorf("fixed mode opened %d extra connections", extra)
	}
}

func TestUpstreamFailureCountsAsFailure(t *testing.T) {
	u, err := resolver.NewUniverse(resolver.UniverseConfig{
		Seed:           22,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1},
		Loss:           0,
	})
	if err != nil {
		t.Fatal(err)
	}
	vp := u.Vantages[0]
	// Upstream points at an address with no resolver.
	p, err := New(vp.Backend, Config{
		Upstream: dox.DoUDP,
		Options: dox.Options{
			Resolver:   netip.MustParseAddr("203.255.255.1"),
			UDPTimeout: 200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	u.W.Go(func() {
		_, ok = stubQuery(u, p.Addr(), 1, "x.example", 2*time.Second)
	})
	u.W.Run()
	if ok {
		t.Error("stub got a response despite dead upstream")
	}
	if p.Failures == 0 {
		t.Error("proxy did not count the failure")
	}
}

// TestCoalescingSharesUpstreamExchange checks the E22 mechanism at unit
// scale: identical concurrent queries share one upstream exchange, every
// waiter still gets a response stamped with its own ID, and disabling
// coalescing restores one exchange per query.
func TestCoalescingSharesUpstreamExchange(t *testing.T) {
	run := func(coalesce bool) (*Proxy, int) {
		u, p := setup(t, dox.DoUDP, func(c *Config) { c.Coalesce = coalesce })
		answered := 0
		u.W.Go(func() {
			wg := sim.NewWaitGroup(u.W)
			for i := 0; i < 4; i++ {
				id := uint16(10 + i)
				wg.Add(1)
				u.W.Go(func() {
					defer wg.Done()
					resp, ok := stubQuery(u, p.Addr(), id, "hot.example", 10*time.Second)
					if ok && resp.ID == id && len(resp.Answers) > 0 {
						answered++
					}
				})
			}
			wg.Wait()
		})
		u.W.Run()
		return p, answered
	}
	p, answered := run(true)
	if answered != 4 {
		t.Fatalf("coalesced: %d/4 waiters answered", answered)
	}
	if p.UpstreamQueries != 1 {
		t.Errorf("coalesced: %d upstream exchanges, want 1", p.UpstreamQueries)
	}
	if p.Coalesced != 3 {
		t.Errorf("coalesced: %d joins, want 3", p.Coalesced)
	}
	p, answered = run(false)
	if answered != 4 {
		t.Fatalf("uncoalesced: %d/4 queries answered", answered)
	}
	if p.UpstreamQueries != 4 {
		t.Errorf("uncoalesced: %d upstream exchanges, want 4", p.UpstreamQueries)
	}
}

// TestStaleAnswerTTLCap checks the TTLs the proxy advertises from its
// stub cache: a fresh hit carries the entry's true remaining lifetime,
// and an answer served stale during an outage advertises the RFC 8767
// §4 cap, cache.StaleAdvertTTL, rather than the lapsed entry's own TTL.
func TestStaleAnswerTTLCap(t *testing.T) {
	u, p := outageSetup(t, func(c *Config) {
		c.ServeStale = true
	})
	var fresh, stale *dnsmsg.Message
	u.W.Go(func() {
		if _, ok := stubQuery(u, p.Addr(), 1, "n0.example", 5*time.Second); !ok {
			t.Error("warm query failed")
			return
		}
		// 2s into the upstream's 5s TTL: a fresh stub-cache hit.
		u.W.Sleep(2 * time.Second)
		fresh, _ = stubQuery(u, p.Addr(), 2, "n0.example", 5*time.Second)
		// 20s: mid-outage, the entry expired 15s ago.
		u.W.Sleep(20*time.Second - u.W.Now())
		stale, _ = stubQuery(u, p.Addr(), 3, "n0.example", 5*time.Second)
	})
	u.W.Run()
	if fresh == nil || len(fresh.Answers) == 0 || fresh.Answers[0].TTL != 3 {
		t.Fatalf("fresh answer should advertise its remaining 3s: %+v", fresh)
	}
	if stale == nil || len(stale.Answers) == 0 || stale.Answers[0].TTL != uint32(cache.StaleAdvertTTL/time.Second) {
		t.Fatalf("stale answer TTL not capped at %v: %+v", cache.StaleAdvertTTL, stale)
	}
	if p.StubHits != 1 || p.StaleServed != 1 {
		t.Errorf("StubHits = %d, StaleServed = %d; want 1 and 1", p.StubHits, p.StaleServed)
	}
}

// outageSetup builds a universe whose single resolver answers every
// query with a 5s TTL and goes unreachable during [10s, 40s).
func outageSetup(t *testing.T, mut func(*Config)) (*resolver.Universe, *Proxy) {
	t.Helper()
	return setupFull(t, dox.DoUDP,
		func(uc *resolver.UniverseConfig) {
			uc.PathPhases = resolver.OutagePhases(0, 10*time.Second, 40*time.Second)
			uc.MutateProfile = func(p *resolver.Profile) {
				p.ResponseRate = 1
				p.CacheTTL = 5 * time.Second
			}
		},
		func(c *Config) {
			c.Options.UDPTimeout = 500 * time.Millisecond
			mut(c)
		})
}

// TestServeStaleAcrossOutage checks the RFC 8767 state machine: a name
// cached before an upstream outage is served stale (advertising the
// 30s cap) once its TTL lapses mid-outage, background revalidation
// refreshes it after recovery, and with serve-stale off the same query
// gets nothing.
func TestServeStaleAcrossOutage(t *testing.T) {
	u, p := outageSetup(t, func(c *Config) {
		c.ServeStale = true
	})
	var warmAddr, staleAddr [4]byte
	var staleOK, postOK bool
	var staleTTL uint32
	var postHits int
	u.W.Go(func() {
		resp, ok := stubQuery(u, p.Addr(), 1, "popular.example", 5*time.Second)
		if !ok || len(resp.Answers) == 0 {
			t.Error("warm query failed")
			return
		}
		warmAddr = resp.Answers[0].Addr.As4()
		// 20s: mid-outage, entry expired 15s ago.
		u.W.Sleep(20*time.Second - u.W.Now())
		var stale *dnsmsg.Message
		stale, staleOK = stubQuery(u, p.Addr(), 2, "popular.example", 5*time.Second)
		if staleOK && len(stale.Answers) > 0 {
			staleAddr = stale.Answers[0].Addr.As4()
			staleTTL = stale.Answers[0].TTL
		}
		// 43.5s: just past recovery. Revalidation (retrying every
		// ~2.5s) succeeds within an attempt or two of the path healing,
		// and its refreshed entry — whose TTL is the upstream's 5s —
		// is still fresh here.
		u.W.Sleep(43500*time.Millisecond - u.W.Now())
		before := p.StubHits
		_, postOK = stubQuery(u, p.Addr(), 3, "popular.example", 5*time.Second)
		postHits = p.StubHits - before
	})
	u.W.Run()
	if !staleOK {
		t.Fatal("no stale answer during outage")
	}
	if staleAddr != warmAddr {
		t.Errorf("stale answer addr %v differs from cached %v", staleAddr, warmAddr)
	}
	if staleTTL != uint32(cache.StaleAdvertTTL/time.Second) {
		t.Errorf("stale answer advertised TTL %d, want %d", staleTTL, cache.StaleAdvertTTL/time.Second)
	}
	if p.StaleServed != 1 {
		t.Errorf("StaleServed = %d, want 1", p.StaleServed)
	}
	if p.Revalidations != 1 {
		t.Errorf("Revalidations = %d, want 1 (background refresh after recovery)", p.Revalidations)
	}
	if !postOK {
		t.Error("post-recovery query failed")
	}
	if postHits != 1 {
		t.Errorf("post-recovery query was not served from the revalidated cache (hits delta %d)", postHits)
	}

	// Off arm: same outage, no serve-stale — the mid-outage query gets
	// nothing at all.
	u2, p2 := outageSetup(t, func(c *Config) { c.StubCache = true })
	var gotDuringOutage bool
	u2.W.Go(func() {
		if _, ok := stubQuery(u2, p2.Addr(), 1, "popular.example", 5*time.Second); !ok {
			t.Error("warm query failed (off arm)")
			return
		}
		u2.W.Sleep(20*time.Second - u2.W.Now())
		_, gotDuringOutage = stubQuery(u2, p2.Addr(), 2, "popular.example", 5*time.Second)
	})
	u2.W.Run()
	if gotDuringOutage {
		t.Error("serve-stale off: expired name was answered during the outage")
	}
	if p2.StaleServed != 0 {
		t.Errorf("serve-stale off: StaleServed = %d", p2.StaleServed)
	}
}

// TestPrefetchKeepsHotNameWarm checks the E24 mechanism: once a name
// crosses the hotness threshold, the proxy refreshes it before every
// TTL expiry, so later queries are stub hits instead of misses.
func TestPrefetchKeepsHotNameWarm(t *testing.T) {
	u, p := setupFull(t, dox.DoUDP,
		func(uc *resolver.UniverseConfig) {
			uc.MutateProfile = func(pr *resolver.Profile) {
				pr.ResponseRate = 1
				pr.CacheTTL = 5 * time.Second
			}
		},
		func(c *Config) {
			c.Prefetch = true
		})
	u.W.Go(func() {
		// Three queries make the name hot; the third-second one still
		// rides the first answer's TTL.
		for i := 0; i < 3; i++ {
			if _, ok := stubQuery(u, p.Addr(), uint16(i+1), "hot.example", 5*time.Second); !ok {
				t.Error("query failed")
				return
			}
			u.W.Sleep(time.Second)
		}
		// 6s: the first entry expired at ~5s; this miss arms the
		// prefetch chain.
		u.W.Sleep(6*time.Second - u.W.Now())
		stubQuery(u, p.Addr(), 4, "hot.example", 5*time.Second)
		// From here on the name should never expire again: sample well
		// past two more TTL generations.
		u.W.Sleep(18*time.Second - u.W.Now())
		before := p.StubHits
		if _, ok := stubQuery(u, p.Addr(), 5, "hot.example", 5*time.Second); !ok {
			t.Error("late query failed")
			return
		}
		if p.StubHits != before+1 {
			t.Error("late query missed the stub cache despite prefetch")
		}
	})
	u.W.Run()
	if p.Prefetches == 0 {
		t.Error("no prefetches issued for a hot name")
	}
}

// TestResetSessionsKeepsStubCacheMidCampaign covers the documented but
// previously unverified semantics: ResetSessions mid-campaign — with a
// query in flight — tears down upstream sessions only, and the
// populated stub cache keeps answering without touching the upstream.
func TestResetSessionsKeepsStubCacheMidCampaign(t *testing.T) {
	u, p := setup(t, dox.DoQ, func(c *Config) { c.StubCache = true })
	u.W.Go(func() {
		if _, ok := stubQuery(u, p.Addr(), 1, "warm.example", 10*time.Second); !ok {
			t.Error("warming query failed")
			return
		}
		// Put a second name's query in flight, then reset mid-exchange.
		u.W.Go(func() {
			stubQuery(u, p.Addr(), 2, "inflight.example", 3*time.Second)
		})
		u.W.Sleep(10 * time.Millisecond)
		p.ResetSessions()
		u.W.Sleep(5 * time.Second)
		// The warm name must come from the stub cache: no new upstream
		// exchange, no new connection handshake.
		upBefore, hitsBefore := p.UpstreamQueries, p.StubHits
		resp, ok := stubQuery(u, p.Addr(), 3, "warm.example", 10*time.Second)
		if !ok || len(resp.Answers) == 0 {
			t.Error("post-reset query for cached name failed")
			return
		}
		if p.StubHits != hitsBefore+1 {
			t.Errorf("post-reset query missed the stub cache (hits %d -> %d)", hitsBefore, p.StubHits)
		}
		if p.UpstreamQueries != upBefore {
			t.Errorf("post-reset cached query went upstream (%d -> %d)", upBefore, p.UpstreamQueries)
		}
	})
	u.W.Run()
}

// TestCoalescedFanoutSteadyStateAllocs bounds the per-round allocation
// of the coalesced fan-out path in steady state: pooled flights, pooled
// waiter lists and pooled response buffers must keep a 4-waiter round
// from allocating per waiter.
func TestCoalescedFanoutSteadyStateAllocs(t *testing.T) {
	u, p := setup(t, dox.DoUDP, func(c *Config) { c.Coalesce = true })
	const clients = 4
	const rounds = 50
	var perRound float64
	u.W.Go(func() {
		host := u.Vantages[0].Host
		socks := make([]*netem.Socket, clients)
		qs := make([]dnsmsg.Message, clients)
		for i := range socks {
			socks[i] = host.Dial(netem.ProtoUDP, 8)
			qs[i] = dnsmsg.NewQuery(uint16(i+1), "steady.example", dnsmsg.TypeA)
		}
		round := func() {
			for i := range socks {
				socks[i].Send(p.Addr(), qs[i].AppendEncode(socks[i].Pool().Get(512)))
			}
			for i := range socks {
				d, ok := socks[i].RecvTimeout(5 * time.Second)
				if !ok {
					t.Error("fan-out response missing")
					return
				}
				socks[i].Pool().Put(d.Payload)
			}
			u.W.Sleep(50 * time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			round() // warm pools (flights, buffers, sim timer entries)
		}
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&m2)
		perRound = float64(m2.Mallocs-m1.Mallocs) / rounds
	})
	u.W.Run()
	if p.Coalesced == 0 {
		t.Fatal("no queries coalesced; the guard is not exercising the fan-out path")
	}
	t.Logf("coalesced fan-out: %.1f allocs/round (%d clients)", perRound, clients)
	// The round inevitably pays the upstream exchange and client-side
	// decode; the budget guards against per-waiter regressions (each
	// waiter costing encode+send must stay pooled).
	if perRound > 60 {
		t.Errorf("coalesced fan-out allocates %.1f/round; budget 60", perRound)
	}
}

// TestStubHitsReturnEveryBuffer guards the datagram ownership chain on
// the stub-cache hit path: the proxy returns each query buffer after
// decoding it and leases its reply from the pool, so once the pool is
// warm a burst of hits adds no pool misses. A receiver that forgets its
// Put shows up here as one miss per query, not as a failure.
func TestStubHitsReturnEveryBuffer(t *testing.T) {
	u, p := setup(t, dox.DoUDP, func(c *Config) { c.StubCache = true })
	const clients, burst = 4, 50
	var misses uint64
	u.W.Go(func() {
		host := u.Vantages[0].Host
		socks := make([]*netem.Socket, clients)
		qs := make([]dnsmsg.Message, clients)
		for i := range socks {
			socks[i] = host.Dial(netem.ProtoUDP, 8)
			qs[i] = dnsmsg.NewQuery(uint16(i+1), "hot.example", dnsmsg.TypeA)
		}
		round := func() {
			for i := range socks {
				socks[i].Send(p.Addr(), qs[i].AppendEncode(socks[i].Pool().Get(512)))
			}
			for i := range socks {
				d, ok := socks[i].RecvTimeout(5 * time.Second)
				if !ok {
					t.Error("stub-cache answer missing")
					return
				}
				socks[i].Pool().Put(d.Payload)
			}
		}
		for i := 0; i < 5; i++ {
			round() // the first round goes upstream; the rest warm the pool
		}
		_, m1 := bytepool.Stats()
		hits := p.StubHits
		for i := 0; i < burst; i++ {
			round()
		}
		_, m2 := bytepool.Stats()
		misses = m2 - m1
		if got := p.StubHits - hits; got != clients*burst {
			t.Errorf("burst produced %d stub hits, want %d", got, clients*burst)
		}
	})
	u.W.Run()
	if misses != 0 {
		t.Errorf("a burst of %d stub-cache hits added %d bytepool misses, want 0", clients*burst, misses)
	}
}

// TestSchedulerHandoffsPerQuery pins the kernel work of one stub query,
// counted in goroutine handoffs and task spawns (sim.World.Stats). Over
// DoUDP, a stub cache hit wakes the proxy's forward task and the stub;
// an upstream exchange also starts the resolver's query task, wakes it
// from its processing delay, and wakes the forward task when the answer
// arrives. Datagram delivery and the receive handlers of the proxy, the
// DoUDP client and the resolver run inline, so a receive path that
// parks a reader task again shows up here as one extra handoff per
// datagram it reads. Over DoTCP the resolver's segments are handled
// inline too: a server connection that parked a task on its segment
// queue would add a handoff for every segment it received. The
// remaining transports pin what they cost today, so a change to their
// server or client tasks shows up as a changed count: the resolver
// answers each DoT query and each DoQ stream in a task of its own, and
// each DoH and DoH3 request in an h2 or h3 response task.
func TestSchedulerHandoffsPerQuery(t *testing.T) {
	const queries = 20
	for _, tc := range []struct {
		name     string
		upstream dox.Protocol
		cache    bool
		// Totals over the queries, in steady state.
		handoffs uint64
		spawns   uint64 // tasks started
		inline   uint64 // AfterCall callbacks
	}{
		{"stub-hit", dox.DoUDP, true, 2 * queries, 1 * queries, 2 * queries},
		{"upstream-exchange", dox.DoUDP, false, 5 * queries, 2 * queries, 5 * queries},
		{"dotcp-upstream-exchange", dox.DoTCP, false, 8 * queries, 2 * queries, 361},
		{"dot-upstream-exchange", dox.DoT, false, 7 * queries, 2 * queries, 160},
		{"doh-upstream-exchange", dox.DoH, false, 8 * queries, 2 * queries, 280},
		{"doq-upstream-exchange", dox.DoQ, false, 6 * queries, 2 * queries, 160},
		{"doh3-upstream-exchange", dox.DoH3, false, 6 * queries, 2 * queries, 158},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, p := setup(t, tc.upstream, func(c *Config) { c.StubCache = tc.cache })
			var d sim.Stats
			u.W.Go(func() {
				sock := u.Vantages[0].Host.Dial(netem.ProtoUDP, 8)
				defer sock.Close()
				query := func(id uint16) {
					q := dnsmsg.NewQuery(id, "steady.example", dnsmsg.TypeA)
					sock.Send(p.Addr(), q.AppendEncode(sock.Pool().Get(512)))
					r, ok := sock.RecvTimeout(5 * time.Second)
					if !ok {
						t.Error("no answer")
						return
					}
					sock.Pool().Put(r.Payload)
				}
				query(1) // the first query opens the upstream session
				s0 := u.W.Stats()
				for i := 0; i < queries; i++ {
					query(uint16(i + 2))
				}
				s1 := u.W.Stats()
				d = sim.Stats{
					Handoffs:   s1.Handoffs - s0.Handoffs,
					Inline:     s1.Inline - s0.Inline,
					TimerWakes: s1.TimerWakes - s0.TimerWakes,
					Spawns:     s1.Spawns - s0.Spawns,
				}
			})
			u.W.Run()
			t.Logf("%d queries: %+v", queries, d)
			if got := d.Handoffs; got != tc.handoffs {
				t.Errorf("handoffs = %d over %d queries, want %d", got, queries, tc.handoffs)
			}
			if got := d.Spawns; got != tc.spawns {
				t.Errorf("spawns = %d over %d queries, want %d", got, queries, tc.spawns)
			}
			if got := d.Inline; got != tc.inline {
				t.Errorf("inline callbacks = %d over %d queries, want %d", got, queries, tc.inline)
			}
		})
	}
}
