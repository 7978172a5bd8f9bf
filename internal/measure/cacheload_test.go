package measure

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/resolver"
	"repro/internal/stats"
)

func TestZipfWorkloadDeterministicAndSkewed(t *testing.T) {
	draw := func() []uint64 {
		wl := NewZipfWorkload(rand.New(rand.NewSource(9)), 1.5, 100)
		out := make([]uint64, 500)
		for i := range out {
			_, out[i] = wl.Next()
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different Zipf streams")
	}
	counts := map[uint64]int{}
	for _, r := range a {
		counts[r]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 drawn %d times, rank 50 %d — not popularity-skewed", counts[0], counts[50])
	}
	name, _ := NewZipfWorkload(rand.New(rand.NewSource(1)), 1.2, 10).Next()
	if name == "" {
		t.Error("empty name")
	}
}

// threeResolvers is the small population most campaign tests run on;
// nineResolvers spans two blocks of the cache and proxy campaigns.
var (
	threeResolvers = map[geo.Continent]int{geo.EU: 2, geo.NA: 1}
	nineResolvers  = map[geo.Continent]int{geo.EU: 5, geo.NA: 4}
)

func cacheBlueprint(t *testing.T, counts map[geo.Continent]int, mutate func(*resolver.Profile)) *resolver.Blueprint {
	t.Helper()
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           2022,
		ResolverCounts: counts,
		Loss:           0.003,
		MutateProfile:  mutate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// TestCacheWorkloadDeterministicAcrossParallelism extends the byte-
// identical guarantee to the Zipf cache campaign: cache state is
// confined to shards, so the summary stream cannot depend on the worker
// count. Nine resolvers make two shards per vantage.
func TestCacheWorkloadDeterministicAcrossParallelism(t *testing.T) {
	bp := cacheBlueprint(t, nineResolvers, nil)
	run := func(par int) []CacheWorkloadSummary {
		sums, err := RunCacheWorkload(CacheWorkloadConfig{
			Blueprint:   bp,
			Parallelism: par,
			Queries:     40,
			Names:       50,
			Skew:        1.3,
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

// TestCacheWorkloadHitRatioGrowsWithSkew checks the E16 relationship at
// campaign level: a more skewed workload concentrates queries on fewer
// names and lifts the resolver-cache hit ratio.
func TestCacheWorkloadHitRatioGrowsWithSkew(t *testing.T) {
	bp := cacheBlueprint(t, threeResolvers, func(p *resolver.Profile) {
		p.ResponseRate = 1
		p.CacheTTL = time.Hour
	})
	ratio := func(skew float64) float64 {
		sums, err := RunCacheWorkload(CacheWorkloadConfig{
			Blueprint: bp,
			Queries:   150,
			Names:     200,
			Skew:      skew,
		})
		if err != nil {
			t.Fatal(err)
		}
		return MergeCacheSummaries(sums).ResolverCache.HitRatio()
	}
	flat, skewed := ratio(1.01), ratio(2.5)
	if skewed <= flat {
		t.Errorf("hit ratio %v at skew 2.5 not above %v at skew 1.01", skewed, flat)
	}
}

// TestCacheWorkloadHitsFasterThanMisses checks the effect the paper
// attributes to caching: cache hits skip upstream recursion, so their
// resolve times sit well below misses'.
func TestCacheWorkloadHitsFasterThanMisses(t *testing.T) {
	bp := cacheBlueprint(t, threeResolvers, func(p *resolver.Profile) {
		p.ResponseRate = 1
		p.CacheTTL = time.Hour
	})
	sums, err := RunCacheWorkload(CacheWorkloadConfig{
		Blueprint: bp,
		Queries:   120,
		Names:     60,
		Skew:      1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := MergeCacheSummaries(sums)
	if all.HitResolve.N() == 0 || all.MissResolve.N() == 0 {
		t.Fatalf("need both hits (%d) and misses (%d)", all.HitResolve.N(), all.MissResolve.N())
	}
	hit, miss := all.HitResolve.MedianDuration(), all.MissResolve.MedianDuration()
	if hit >= miss {
		t.Errorf("median hit resolve %v not below miss %v", hit, miss)
	}
	if all.OK == 0 || all.OK > all.Queries {
		t.Errorf("OK=%d of %d", all.OK, all.Queries)
	}
}

// benchZipfAggregation is the acceptance benchmark for streaming
// aggregation: one op = one full Zipf stream through a Sketch. B/op
// must stay flat as the stream grows 10× — the sketch and the name
// table are the only allocations, and neither scales with the query
// count.
func benchZipfAggregation(b *testing.B, queries int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl := NewZipfWorkload(rand.New(rand.NewSource(1)), 1.3, 10000)
		s := stats.NewSketch()
		for j := 0; j < queries; j++ {
			_, rank := wl.Next()
			// A synthetic per-rank latency: popular ranks resolve fast
			// (cache hit), the tail pays recursion.
			s.AddDuration(time.Duration(rank+1) * 100 * time.Microsecond)
		}
		if s.N() != queries {
			b.Fatalf("lost samples: %d != %d", s.N(), queries)
		}
	}
}

// BenchmarkZipfAggregation100k and BenchmarkZipfAggregation1M differ
// only in stream length; compare their B/op to verify the fixed memory
// budget (run with -benchmem).
func BenchmarkZipfAggregation100k(b *testing.B) { benchZipfAggregation(b, 100_000) }

func BenchmarkZipfAggregation1M(b *testing.B) { benchZipfAggregation(b, 1_000_000) }

// BenchmarkCacheWorkloadCampaign regenerates a small end-to-end Zipf
// cache campaign (network stack included), the E16 workhorse.
func BenchmarkCacheWorkloadCampaign(b *testing.B) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           2022,
		ResolverCounts: map[geo.Continent]int{geo.EU: 2, geo.NA: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sums, err := RunCacheWorkload(CacheWorkloadConfig{
			Blueprint:   bp,
			Parallelism: 1,
			Queries:     100,
			Names:       100,
			Skew:        1.3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(sums) == 0 {
			b.Fatal("no summaries")
		}
	}
}
