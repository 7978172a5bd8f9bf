package resolver

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/quic"
)

func TestSyntheticAddrStable(t *testing.T) {
	a := SyntheticAddr("google.com")
	b := SyntheticAddr("google.com")
	if a != b {
		t.Error("addresses differ across calls")
	}
	if SyntheticAddr("example.org") == a {
		t.Error("different names map to same address")
	}
	if !a.Is4() {
		t.Error("not IPv4")
	}
}

func TestProfileDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	v1, i02, tls12, bigCert := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		p := SynthesizeProfile(rng, "r", netip.MustParseAddr("203.0.0.1"), geo.Place{}, DefaultPopulation())
		if p.QUICVersion == quic.Version1 {
			v1++
		}
		if p.DoQALPN == "doq-i02" {
			i02++
		}
		if p.TLS12Only {
			tls12++
		}
		if p.CertChainSize >= 4000 {
			bigCert++
		}
	}
	check := func(name string, got, wantPct, tolPct int) {
		pct := got * 100 / n
		if pct < wantPct-tolPct || pct > wantPct+tolPct {
			t.Errorf("%s share = %d%%, want ~%d%%", name, pct, wantPct)
		}
	}
	check("QUIC v1", v1, 89, 3)   // paper: 89.1%
	check("doq-i02", i02, 87, 3)  // paper: 87.4%
	check("TLS 1.2", tls12, 1, 2) // paper: ~1%
	check("big cert", bigCert, 40, 4)
}

func TestUniverseSmokeAllProtocols(t *testing.T) {
	u, err := NewUniverse(UniverseConfig{
		Seed:           42,
		ResolverCounts: map[geo.Continent]int{geo.EU: 2, geo.NA: 1},
		Loss:           0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Resolvers) != 3 || len(u.Vantages) != 6 {
		t.Fatalf("universe has %d resolvers, %d vantages", len(u.Resolvers), len(u.Vantages))
	}
	vp := u.Vantages[0]
	res := u.Resolvers[0]
	results := map[dox.Protocol]bool{}
	u.W.Go(func() {
		for _, proto := range dox.Protocols {
			c, err := dox.Connect(proto, dox.Options{
				Backend:      vp.Backend,
				Resolver:     res.Addr,
				ServerName:   res.Name,
				QUICVersions: []uint32{res.QUICVersion},
			})
			if err != nil {
				t.Errorf("%v: %v", proto, err)
				continue
			}
			q := dnsmsg.NewQuery(uint16(proto), "google.com", dnsmsg.TypeA)
			resp, err := c.Query(&q)
			if err != nil {
				t.Errorf("%v query: %v", proto, err)
				c.Close()
				continue
			}
			_, ok := resp.FirstA()
			results[proto] = ok
			c.Close()
		}
	})
	u.W.Run()
	for _, proto := range dox.Protocols {
		if !results[proto] {
			t.Errorf("%v did not resolve", proto)
		}
	}
}

func TestCacheWarmingMakesSecondQueryFast(t *testing.T) {
	u, err := NewUniverse(UniverseConfig{
		Seed:           7,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1},
		Loss:           0,
	})
	if err != nil {
		t.Fatal(err)
	}
	vp, res := u.Vantages[0], u.Resolvers[0]
	rtt := u.PathRTT(vp, res)
	var cold, warm time.Duration
	u.W.Go(func() {
		c, err := dox.Connect(dox.DoUDP, dox.Options{
			Backend: vp.Backend, Resolver: res.Addr,
		})
		if err != nil {
			t.Error(err)
			return
		}
		q := dnsmsg.NewQuery(1, "warmtest.example", dnsmsg.TypeA)
		start := u.W.Now()
		if _, err := c.Query(&q); err != nil {
			t.Error(err)
			return
		}
		cold = u.W.Now() - start
		q2 := dnsmsg.NewQuery(2, "warmtest.example", dnsmsg.TypeA)
		start = u.W.Now()
		if _, err := c.Query(&q2); err != nil {
			t.Error(err)
			return
		}
		warm = u.W.Now() - start
		c.Close()
	})
	u.W.Run()
	if cold < rtt+res.RecursiveRTT {
		t.Errorf("cold query %v faster than RTT+recursion (%v)", cold, rtt+res.RecursiveRTT)
	}
	if warm > rtt+5*time.Millisecond {
		t.Errorf("warm query %v, want ~RTT (%v)", warm, rtt)
	}
	if st := res.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestNoLossSentinel is the regression test for the zero-loss config
// trap: Loss == 0 keeps selecting the 0.3% default, while the NoLoss
// sentinel yields genuinely lossless paths — and therefore zero
// datagram drops on every vantage-resolver path.
func TestNoLossSentinel(t *testing.T) {
	counts := map[geo.Continent]int{geo.EU: 2, geo.NA: 1}
	bp, err := NewBlueprint(UniverseConfig{Seed: 5, ResolverCounts: counts, Loss: NoLoss})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Loss != 0 {
		t.Fatalf("NoLoss blueprint has Loss=%v, want 0", bp.Loss)
	}
	defaulted, err := NewBlueprint(UniverseConfig{Seed: 5, ResolverCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.Loss != 0.003 {
		t.Fatalf("zero-value Loss = %v, want the 0.3%% default", defaulted.Loss)
	}
	u, err := bp.Instantiate(5, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vp := range u.Vantages {
		for _, res := range u.Resolvers {
			if l := u.Net.Path(vp.Host.Addr(), res.Addr).Loss; l != 0 {
				t.Fatalf("path %s->%s has loss %v under NoLoss", vp.Name, res.Name, l)
			}
		}
	}
}

// TestAccessProfileThreading checks the blueprint carries the named
// access profile onto every vantage host, defaults to fiber, and
// rejects unknown names; and that PathPhases install a schedule on
// every vantage-resolver path.
func TestAccessProfileThreading(t *testing.T) {
	counts := map[geo.Continent]int{geo.EU: 2, geo.NA: 1}
	bp, err := NewBlueprint(UniverseConfig{Seed: 5, ResolverCounts: counts, Access: "3g"})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Access.Name != "3g" {
		t.Fatalf("blueprint access = %q, want 3g", bp.Access.Name)
	}
	u, err := bp.Instantiate(5, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vp := range u.Vantages {
		prof, ok := u.Net.AccessLink(vp.Host.Addr())
		if !ok || prof.Name != "3g" {
			t.Fatalf("vantage %s access link = %+v, %v; want 3g", vp.Name, prof, ok)
		}
	}

	def, err := NewBlueprint(UniverseConfig{Seed: 5, ResolverCounts: counts})
	if err != nil {
		t.Fatal(err)
	}
	if def.Access.Name != "fiber" {
		t.Fatalf("default access = %q, want fiber", def.Access.Name)
	}
	if _, err := NewBlueprint(UniverseConfig{Seed: 5, ResolverCounts: counts, Access: "dialup"}); err == nil {
		t.Fatal("unknown access profile accepted")
	}

	phased, err := NewBlueprint(UniverseConfig{
		Seed: 5, ResolverCounts: counts,
		PathPhases: []PathPhase{
			{At: 0, Loss: 0.003},
			{At: time.Minute, Burst: netem.BurstLoss{PGoodBad: 0.1, PBadGood: 0.2, LossBad: 0.5}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	up, err := phased.Instantiate(5, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vp := range up.Vantages {
		for _, res := range up.Resolvers {
			early := up.Net.PathAt(vp.Host.Addr(), res.Addr, 0)
			late := up.Net.PathAt(res.Addr, vp.Host.Addr(), 90*time.Second)
			if early.Burst.Enabled() {
				t.Fatalf("phase 0 has burst loss enabled: %+v", early.Burst)
			}
			if !late.Burst.Enabled() || late.Loss != 0 {
				t.Fatalf("phase 1 not in effect at 90s: %+v", late)
			}
			if late.Delay != early.Delay {
				t.Fatalf("schedule changed path delay: %v vs %v", late.Delay, early.Delay)
			}
		}
	}
}

func TestScaledCountsShape(t *testing.T) {
	c := ScaledCounts(60)
	if c[geo.EU] < c[geo.NA] || c[geo.AS] < c[geo.NA] {
		t.Errorf("scaling lost the EU/AS dominance: %v", c)
	}
	for _, cont := range geo.Continents {
		if c[cont] < 1 {
			t.Errorf("%v has no resolvers", cont)
		}
	}
	full := ScaledCounts(313)
	if full[geo.EU] != 130 || full[geo.AS] != 128 {
		t.Errorf("full scale mismatch: %v", full)
	}
}

func TestUnresponsiveness(t *testing.T) {
	u, err := NewUniverse(UniverseConfig{
		Seed:           3,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1},
		Loss:           0,
		Population:     PopulationParams{BigCertFraction: 0.4, ResponseRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	vp, res := u.Vantages[0], u.Resolvers[0]
	answered := 0
	const queries = 40
	u.W.Go(func() {
		c, _ := dox.Connect(dox.DoUDP, dox.Options{
			Backend: vp.Backend, Resolver: res.Addr,
			UDPTimeout: 100 * time.Millisecond, UDPRetries: 1,
		})
		for i := 0; i < queries; i++ {
			q := dnsmsg.NewQuery(uint16(i), "google.com", dnsmsg.TypeA)
			if _, err := c.Query(&q); err == nil {
				answered++
			}
		}
		c.Close()
	})
	u.W.Run()
	if answered < queries/4 || answered > queries {
		t.Errorf("answered %d/%d at 50%% response rate", answered, queries)
	}
	if res.Dropped == 0 {
		t.Error("resolver never dropped a query")
	}
}
