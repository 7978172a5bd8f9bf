package browser

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsproxy"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/pages"
	"repro/internal/resolver"
)

func setup(t *testing.T, seed int64, upstream dox.Protocol, mut func(*dnsproxy.Config)) (*resolver.Universe, *Engine, *dnsproxy.Proxy) {
	t.Helper()
	u, err := resolver.NewUniverse(resolver.UniverseConfig{
		Seed:           seed,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1},
		Loss:           0,
	})
	if err != nil {
		t.Fatal(err)
	}
	vp, res := u.Vantages[0], u.Resolvers[0]
	cfg := dnsproxy.Config{
		Upstream: upstream,
		Options: dox.Options{
			Resolver:     res.Addr,
			ServerName:   res.Name,
			QUICVersions: []uint32{res.QUICVersion},
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := dnsproxy.New(vp.Backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u, &Engine{Backend: vp.Backend, Proxy: p.Addr()}, p
}

func TestLoadSimplePage(t *testing.T) {
	u, eng, _ := setup(t, 1, dox.DoUDP, nil)
	var r Result
	u.W.Go(func() { r = eng.Load(pages.ByName("wikipedia")) })
	u.W.Run()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.DNSQueries != 1 {
		t.Errorf("wikipedia used %d DNS queries, want 1", r.DNSQueries)
	}
	if r.FCP <= 0 || r.PLT < r.FCP {
		t.Errorf("FCP=%v PLT=%v", r.FCP, r.PLT)
	}
	// Simple pages load fast: roughly 1-3 seconds.
	if r.PLT > 4*time.Second {
		t.Errorf("wikipedia PLT = %v, implausibly slow", r.PLT)
	}
}

func TestDNSQueryCountsMatchPaper(t *testing.T) {
	want := map[string]int{
		"wikipedia": 1, "instagram": 1, "facebook": 3, "linkedin": 3,
		"google": 5, "baidu": 6, "twitter": 6, "netflix": 7,
		"microsoft": 8, "youtube": 9,
	}
	for _, p := range pages.Top10() {
		if got := p.DNSQueryCount(); got != want[p.Name] {
			t.Errorf("%s: %d DNS names, want %d", p.Name, got, want[p.Name])
		}
	}
	// Fig. 4 orders pages by query count; Top10 should too.
	prev := 0
	for _, p := range pages.Top10() {
		if p.DNSQueryCount() < prev {
			t.Errorf("Top10 not ordered by DNS query count at %s", p.Name)
		}
		prev = p.DNSQueryCount()
	}
}

func TestAllPagesLoadOverAllProtocols(t *testing.T) {
	for _, proto := range dox.Protocols {
		u, eng, _ := setup(t, 2, proto, nil)
		var results []Result
		u.W.Go(func() {
			for _, p := range pages.Top10() {
				results = append(results, eng.Load(p))
			}
		})
		u.W.Run()
		if len(results) != len(pages.Top10()) {
			t.Fatalf("%v: %d of %d pages loaded", proto, len(results), len(pages.Top10()))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("%v %s: %v", proto, pages.Top10()[i].Name, r.Err)
			}
		}
	}
}

// TestEncryptedUpstreamSlowerThanDoUDP verifies the core Fig. 3
// relationship on a single page: a DoQ page load is somewhat slower than
// DoUDP (handshake cost), and DoH is slower than DoQ (extra round trip).
func TestEncryptedUpstreamSlowerThanDoUDP(t *testing.T) {
	plt := map[dox.Protocol]time.Duration{}
	for _, proto := range []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH} {
		u, eng, _ := setup(t, 3, proto, nil)
		var r Result
		u.W.Go(func() { r = eng.Load(pages.ByName("wikipedia")) })
		u.W.Run()
		if r.Err != nil {
			t.Fatalf("%v: %v", proto, r.Err)
		}
		plt[proto] = r.PLT
	}
	if plt[dox.DoQ] <= plt[dox.DoUDP] {
		t.Errorf("DoQ PLT (%v) not slower than DoUDP (%v)", plt[dox.DoQ], plt[dox.DoUDP])
	}
	if plt[dox.DoH] <= plt[dox.DoQ] {
		t.Errorf("DoH PLT (%v) not slower than DoQ (%v)", plt[dox.DoH], plt[dox.DoQ])
	}
}

// TestDoTInFlightBugTriggersExtraConnections loads a page with several
// concurrent third-party resolutions over DoT and expects the proxy to
// open extra connections (the paper's ~60%-of-page-loads bug), and none
// with the fix applied.
func TestDoTInFlightBugTriggersExtraConnections(t *testing.T) {
	u, eng, proxy := setup(t, 4, dox.DoT, nil)
	var r Result
	u.W.Go(func() { r = eng.Load(pages.ByName("youtube")) })
	u.W.Run()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if proxy.ExtraConnections == 0 {
		t.Error("buggy proxy opened no extra DoT connections on a 9-name page")
	}

	u2, eng2, proxy2 := setup(t, 4, dox.DoT, func(c *dnsproxy.Config) { c.FixDoTReuse = true })
	var r2 Result
	u2.W.Go(func() { r2 = eng2.Load(pages.ByName("youtube")) })
	u2.W.Run()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if proxy2.ExtraConnections != 0 {
		t.Errorf("fixed proxy still opened %d extra connections", proxy2.ExtraConnections)
	}
	if r2.PLT > r.PLT {
		t.Errorf("fixed DoT (%v) slower than buggy DoT (%v)", r2.PLT, r.PLT)
	}
}

// TestAmortization verifies the paper's headline: the relative DNS cost
// of DoQ vs DoUDP shrinks as pages need more DNS queries, because the
// proxy reuses the upstream session after the first query.
func TestAmortization(t *testing.T) {
	rel := func(page string) float64 {
		var plts [2]time.Duration
		for i, proto := range []dox.Protocol{dox.DoUDP, dox.DoQ} {
			u, eng, _ := setup(t, 5, proto, nil)
			var r Result
			u.W.Go(func() { r = eng.Load(pages.ByName(page)) })
			u.W.Run()
			if r.Err != nil {
				t.Fatalf("%v %s: %v", proto, page, r.Err)
			}
			plts[i] = r.PLT
		}
		return float64(plts[1]-plts[0]) / float64(plts[0])
	}
	simple := rel("wikipedia")
	complex := rel("youtube")
	if complex >= simple {
		t.Errorf("DoQ relative cost did not amortize: wikipedia %+.1f%%, youtube %+.1f%%",
			simple*100, complex*100)
	}
	t.Logf("DoQ vs DoUDP PLT: wikipedia %+.1f%%, youtube %+.1f%%", simple*100, complex*100)
}

func TestResolutionFailureReported(t *testing.T) {
	u, err := resolver.NewUniverse(resolver.UniverseConfig{
		Seed:           6,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1},
		Loss:           0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Engine pointed at a port where no proxy listens: every resolution
	// times out after the stub's retransmissions.
	vp := u.Vantages[0]
	eng := &Engine{Backend: vp.Backend, Proxy: netip.AddrPortFrom(vp.Host.Addr(), 9999)}
	var r Result
	u.W.Go(func() { r = eng.Load(pages.ByName("wikipedia")) })
	u.W.Run()
	if r.Err == nil {
		t.Error("load succeeded without a proxy")
	}
}
