package measure

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/resolver"
)

func proxyBlueprint(t *testing.T, counts map[geo.Continent]int, phases []resolver.PathPhase, ttl time.Duration) *resolver.Blueprint {
	t.Helper()
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           2022,
		ResolverCounts: counts,
		Loss:           0.003,
		PathPhases:     phases,
		MutateProfile: func(p *resolver.Profile) {
			p.ResponseRate = 1
			p.CacheTTL = ttl
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// TestProxyServeDeterministicAcrossParallelism extends the byte-identical
// guarantee to the proxy serving campaign with every serving feature on
// at once: coalescing, serve-stale across an outage and prefetch all
// confine their state to the shard's World, so the summary
// stream cannot depend on the worker count. Nine resolvers make two
// shards per vantage.
func TestProxyServeDeterministicAcrossParallelism(t *testing.T) {
	bp := proxyBlueprint(t, nineResolvers, resolver.OutagePhases(resolver.DefaultLoss, 8*time.Second, 14*time.Second), 2*time.Second)
	run := func(par int) []ProxyServeSummary {
		sums, err := RunProxyServe(ProxyServeConfig{
			Blueprint:     bp,
			Parallelism:   par,
			Clients:       3,
			Queries:       20,
			Names:         30,
			Coalesce:      true,
			ServeStale:    true,
			Prefetch:      true,
			UDPTimeout:    500 * time.Millisecond,
			ClassifyStart: 10 * time.Second,
			ClassifyEnd:   14 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no summaries")
	}
	for _, par := range []int{2, 8} {
		got := run(par)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism %d produced a different summary stream", par)
		}
	}
}

// TestProxyServeCoalescingReducesUpstream checks the E22 relationship at
// campaign level: with aligned client cohorts, coalescing collapses each
// concurrent miss group into one upstream exchange without losing
// answers.
func TestProxyServeCoalescingReducesUpstream(t *testing.T) {
	bp := proxyBlueprint(t, threeResolvers, nil, 5*time.Second)
	run := func(coalesce bool) ProxyServeSummary {
		sums, err := RunProxyServe(ProxyServeConfig{
			Blueprint: bp,
			Clients:   4,
			Queries:   15,
			Names:     40,
			Coalesce:  coalesce,
		})
		if err != nil {
			t.Fatal(err)
		}
		return MergeProxyServeSummaries(sums)
	}
	off, on := run(false), run(true)
	if on.Coalesced == 0 {
		t.Fatal("aligned cohorts produced no coalesced queries")
	}
	if on.UpstreamQueries >= off.UpstreamQueries {
		t.Errorf("coalescing did not reduce upstream exchanges: %d >= %d",
			on.UpstreamQueries, off.UpstreamQueries)
	}
	if on.OK < off.OK {
		t.Errorf("coalescing lost answers: %d < %d", on.OK, off.OK)
	}
}

// TestProxyServeStaleSavesOutageWindow checks the E23 relationship: in a
// window starting one TTL (plus the 1s TTL round-up slack) into a total
// outage, only the serve-stale arm can answer anything.
func TestProxyServeStaleSavesOutageWindow(t *testing.T) {
	phases := resolver.OutagePhases(0, 8*time.Second, 20*time.Second)
	run := func(serveStale bool) ProxyServeSummary {
		bp := proxyBlueprint(t, threeResolvers, phases, 2*time.Second)
		sums, err := RunProxyServe(ProxyServeConfig{
			Blueprint:     bp,
			Clients:       2,
			Queries:       20,
			Names:         10,
			Skew:          1.8,
			ServeStale:    serveStale,
			UDPTimeout:    500 * time.Millisecond,
			ClassifyStart: 12 * time.Second,
			ClassifyEnd:   20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return MergeProxyServeSummaries(sums)
	}
	off, on := run(false), run(true)
	if off.WindowOK != 0 {
		t.Errorf("without serve-stale %d window queries were answered; the window starts past every TTL", off.WindowOK)
	}
	if on.WindowOK == 0 || on.StaleServed == 0 {
		t.Errorf("serve-stale answered nothing in the window (ok=%d stale=%d)", on.WindowOK, on.StaleServed)
	}
	if on.StaleAge.N() == 0 {
		t.Error("no staleness samples recorded")
	}
}
