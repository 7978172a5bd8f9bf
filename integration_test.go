package repro

// Cross-stack integration tests: the full pipeline (sim kernel -> netem
// -> TCP/QUIC/TLS -> DNS transports -> resolvers -> measurement
// methodology) exercised end to end under loss and jitter.

import (
	"testing"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/resolver"
	"repro/internal/stats"
)

func TestEndToEndAllProtocolsUnderLossAndJitter(t *testing.T) {
	u, err := resolver.NewUniverse(resolver.UniverseConfig{
		Seed:           99,
		ResolverCounts: map[geo.Continent]int{geo.EU: 2, geo.AS: 1},
		Loss:           0.02, // heavy loss: retransmission machinery must cope
	})
	if err != nil {
		t.Fatal(err)
	}
	// Widen every vantage<->resolver path's jitter to 3ms, so reordering
	// joins the loss.
	for _, v := range u.Vantages {
		for _, res := range u.Resolvers {
			p := u.Net.Path(v.Host.Addr(), res.Addr)
			p.Jitter = 3 * time.Millisecond
			u.Net.SetSymmetricPath(v.Host.Addr(), res.Addr, p)
		}
	}
	vp := u.Vantages[0]
	success := map[dox.Protocol]int{}
	const perProto = 6
	u.W.Go(func() {
		for _, proto := range dox.Protocols {
			for i := 0; i < perProto; i++ {
				res := u.Resolvers[i%len(u.Resolvers)]
				c, err := dox.Connect(proto, dox.Options{
					Backend: vp.Backend, Resolver: res.Addr, ServerName: res.Name,
					DoQPort: res.DoQPort,
				})
				if err != nil {
					continue
				}
				q := dnsmsg.NewQuery(uint16(i+1), "integration.example", dnsmsg.TypeA)
				if resp, err := c.Query(&q); err == nil {
					if _, ok := resp.FirstA(); ok {
						success[proto]++
					}
				}
				c.Close()
			}
		}
	})
	u.W.Run()
	for _, proto := range dox.Protocols {
		if success[proto] < perProto-2 {
			t.Errorf("%v: only %d/%d queries succeeded under 2%% loss", proto, success[proto], perProto)
		}
	}
}

// TestCampaignDeterministicGivenSeed runs the same scaled campaign twice
// and expects identical aggregate results — the property that makes the
// whole reproduction reproducible.
func TestCampaignDeterministicGivenSeed(t *testing.T) {
	run := func() map[dox.Protocol]time.Duration {
		bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
			Seed:           123,
			ResolverCounts: map[geo.Continent]int{geo.EU: 2, geo.NA: 1},
			Loss:           0.002,
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := measure.RunSingleQuery(measure.SingleQueryConfig{Blueprint: bp})
		if err != nil {
			t.Fatal(err)
		}
		out := map[dox.Protocol][]time.Duration{}
		for _, s := range samples {
			if s.OK {
				out[s.Protocol] = append(out[s.Protocol], s.Handshake)
			}
		}
		med := map[dox.Protocol]time.Duration{}
		for p, xs := range out {
			med[p] = stats.MedianDuration(xs)
		}
		return med
	}
	a, b := run(), run()
	for _, p := range dox.Protocols {
		// Exact equality: the determinism leaks that once forced a
		// tolerance here (map-order task wakeups in transport failure
		// paths, ecdh.GenerateKey drawing from the system DRBG) are
		// fixed, and the campaign engine's byte-identity guarantee
		// depends on them staying fixed.
		if a[p] != b[p] {
			t.Errorf("%v: medians differ across identical runs: %v vs %v", p, a[p], b[p])
		}
	}
}

// TestPaperHeadline reproduces the abstract's two sentences in one test:
// DoQ outperforms DoT and DoH by ~33% for single queries, and falls
// short of DoUDP by ~50% (1 RTT handshake + 1 RTT resolve vs 1 RTT).
func TestPaperHeadline(t *testing.T) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           2022,
		ResolverCounts: resolver.ScaledCounts(24),
		Loss:           0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := measure.RunSingleQuery(measure.SingleQueryConfig{Blueprint: bp})
	if err != nil {
		t.Fatal(err)
	}
	total := map[dox.Protocol][]float64{}
	for _, s := range samples {
		if s.OK {
			total[s.Protocol] = append(total[s.Protocol], float64(s.Total))
		}
	}
	med := func(p dox.Protocol) float64 { return stats.Median(total[p]) }

	doq, dot, doh, doudp := med(dox.DoQ), med(dox.DoT), med(dox.DoH), med(dox.DoUDP)
	// "the single query response time is improved by ~33% in comparison
	// to DoT and DoH" — DoQ at 2 RTT vs 3 RTT is a 1/3 improvement.
	for name, other := range map[string]float64{"DoT": dot, "DoH": doh} {
		gain := (other - doq) / other
		if gain < 0.20 || gain > 0.45 {
			t.Errorf("DoQ improves on %s by %.0f%%, want ~33%%", name, gain*100)
		}
	}
	// "DoQ falls short of DoUDP by only ~50%" (2 RTT vs 1 RTT).
	short := (doq - doudp) / doudp
	if short < 0.6 || short > 1.4 {
		t.Errorf("DoQ falls short of DoUDP by %.0f%%, want ~100%% of 1 RTT (paper's ~50%% of total incl. overheads)", short*100)
	}
}
