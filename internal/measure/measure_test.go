package measure

import (
	"testing"
	"time"

	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/pages"
	"repro/internal/resolver"
	"repro/internal/stats"
	"repro/internal/tlsmini"
)

func smallBlueprint(t *testing.T, seed int64) *resolver.Blueprint {
	t.Helper()
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           seed,
		ResolverCounts: map[geo.Continent]int{geo.EU: 3, geo.AS: 2, geo.NA: 2, geo.AF: 1},
		Loss:           0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func medianBy(samples []SingleQuerySample, proto dox.Protocol, f func(SingleQuerySample) time.Duration) time.Duration {
	var xs []time.Duration
	for _, s := range samples {
		if s.OK && s.Protocol == proto {
			xs = append(xs, f(s))
		}
	}
	return stats.MedianDuration(xs)
}

func TestSingleQueryCampaignShape(t *testing.T) {
	samples, err := RunSingleQuery(SingleQueryConfig{Blueprint: smallBlueprint(t, 11)})
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for _, s := range samples {
		if s.OK {
			okCount++
		}
	}
	total := len(samples)
	if total != 6*8*5 {
		t.Fatalf("sample count = %d, want %d", total, 6*8*5)
	}
	if okCount < total*9/10 {
		t.Fatalf("only %d/%d samples OK", okCount, total)
	}

	hs := func(s SingleQuerySample) time.Duration { return s.Handshake }
	rv := func(s SingleQuerySample) time.Duration { return s.Resolve }

	hsDoTCP := medianBy(samples, dox.DoTCP, hs)
	hsDoQ := medianBy(samples, dox.DoQ, hs)
	hsDoT := medianBy(samples, dox.DoT, hs)
	hsDoH := medianBy(samples, dox.DoH, hs)

	// Fig. 2a: DoT and DoH comparable, roughly double DoTCP and DoQ.
	if hsDoT < hsDoTCP*3/2 || hsDoH < hsDoTCP*3/2 {
		t.Errorf("handshake medians: DoTCP=%v DoQ=%v DoH=%v DoT=%v; want DoT/DoH ~2x DoTCP",
			hsDoTCP, hsDoQ, hsDoH, hsDoT)
	}
	if hsDoQ > hsDoTCP*13/10 || hsDoQ < hsDoTCP*7/10 {
		t.Errorf("DoQ handshake %v not comparable to DoTCP %v (resumption in effect)", hsDoQ, hsDoTCP)
	}

	// Fig. 2b: resolve times similar across protocols (cache warm).
	rvUDP := medianBy(samples, dox.DoUDP, rv)
	for _, proto := range dox.Protocols {
		m := medianBy(samples, proto, rv)
		if m > rvUDP*14/10 || m < rvUDP*6/10 {
			t.Errorf("resolve median %v = %v, DoUDP = %v; expected similar", proto, m, rvUDP)
		}
	}
}

func TestSingleQueryUsesResumptionAndTokens(t *testing.T) {
	samples, err := RunSingleQuery(SingleQueryConfig{
		Blueprint: smallBlueprint(t, 12), Protocols: []dox.Protocol{dox.DoQ, dox.DoT, dox.DoH},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumed, zeroRTT, tokens, vn := 0, 0, 0, 0
	ok := 0
	tls13 := 0
	for _, s := range samples {
		if !s.OK {
			continue
		}
		ok++
		if s.M.UsedResumption {
			resumed++
		}
		if s.M.Used0RTT {
			zeroRTT++
		}
		if s.Protocol == dox.DoQ {
			if s.M.UsedToken {
				tokens++
			}
			if s.M.UsedVN {
				vn++
			}
		}
		if s.M.TLSVersion == tlsmini.VersionTLS13 {
			tls13++
		}
	}
	// All resolvers support Session Resumption; TLS 1.2-only resolvers
	// cannot resume in our model, so allow a small remainder.
	if resumed < ok*9/10 {
		t.Errorf("resumption in %d/%d measured sessions", resumed, ok)
	}
	if zeroRTT != 0 {
		t.Errorf("0-RTT used %d times; no public resolver supports it", zeroRTT)
	}
	if tokens == 0 {
		t.Error("no DoQ measurement presented an address-validation token")
	}
	if vn != 0 {
		t.Errorf("%d measured DoQ handshakes needed Version Negotiation (version should be cached)", vn)
	}
	if tls13 < ok*9/10 {
		t.Errorf("TLS 1.3 in %d/%d sessions, want ~99%%", tls13, ok)
	}
}

// TestE10NoResumptionSlowsDoQ reproduces the preliminary-work comparison:
// without Session Resumption (and thus without tokens), DoQ handshakes
// with big-certificate resolvers pay the amplification-limit round trip,
// and draft-version resolvers cost a Version Negotiation round trip.
func TestE10NoResumptionSlowsDoQ(t *testing.T) {
	bp := smallBlueprint(t, 13)
	with, err := RunSingleQuery(SingleQueryConfig{Blueprint: bp, Protocols: []dox.Protocol{dox.DoQ}})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunSingleQuery(SingleQueryConfig{
		Blueprint: bp, Protocols: []dox.Protocol{dox.DoQ}, DisableResumption: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := func(s SingleQuerySample) time.Duration { return s.Handshake }
	mWith := medianBy(with, dox.DoQ, hs)
	mWithout := medianBy(without, dox.DoQ, hs)
	if mWithout <= mWith {
		t.Errorf("no-resumption DoQ median handshake %v not slower than resumed %v", mWithout, mWith)
	}
}

// TestE11ZeroRTT verifies that with resolvers supporting 0-RTT (the
// paper's future-work scenario) the measured DoQ resolve completes with
// early data.
func TestE11ZeroRTT(t *testing.T) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           14,
		ResolverCounts: map[geo.Continent]int{geo.EU: 2},
		Loss:           0,
		MutateProfile:  func(p *resolver.Profile) { p.AcceptEarlyData = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := RunSingleQuery(SingleQueryConfig{
		Blueprint: bp, Protocols: []dox.Protocol{dox.DoQ}, Use0RTT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	okCount := 0
	for _, s := range samples {
		if s.OK {
			okCount++
			if s.M.Used0RTT {
				used++
			}
		}
	}
	if okCount == 0 {
		t.Fatal("no successful samples")
	}
	if used < okCount/2 {
		t.Errorf("0-RTT used in %d/%d measured DoQ sessions", used, okCount)
	}
}

func TestWebCampaignShape(t *testing.T) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           15,
		ResolverCounts: map[geo.Continent]int{geo.EU: 1, geo.NA: 1},
		Loss:           0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := []*pages.Page{pages.ByName("wikipedia"), pages.ByName("youtube")}
	samples, err := RunWeb(WebConfig{
		Blueprint: bp,
		Protocols: []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH},
		Pages:     ps,
		Loads:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * 2 * 3 * 2 * 2 // vantages * resolvers * protocols * pages * loads
	if len(samples) != want {
		t.Fatalf("sample count = %d, want %d", len(samples), want)
	}
	okCount := 0
	plt := map[dox.Protocol][]float64{}
	for _, s := range samples {
		if !s.OK {
			continue
		}
		okCount++
		if s.FCP <= 0 || s.PLT < s.FCP {
			t.Errorf("sample %+v has invalid FCP/PLT", s)
		}
		if s.Page == "wikipedia" {
			plt[s.Protocol] = append(plt[s.Protocol], float64(s.PLT))
		}
	}
	if okCount < len(samples)*9/10 {
		t.Fatalf("only %d/%d web samples OK", okCount, len(samples))
	}
	mUDP := stats.Median(plt[dox.DoUDP])
	mDoQ := stats.Median(plt[dox.DoQ])
	mDoH := stats.Median(plt[dox.DoH])
	if !(mUDP < mDoQ && mDoQ < mDoH) {
		t.Errorf("wikipedia PLT medians: DoUDP=%v DoQ=%v DoH=%v; want DoUDP < DoQ < DoH",
			time.Duration(mUDP), time.Duration(mDoQ), time.Duration(mDoH))
	}
}
