package measure

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/pages"
	"repro/internal/resolver"
)

// The tests in this file enforce the campaign engine's core guarantee:
// for a fixed seed and configuration, the sample stream is byte-identical
// at parallelism 1 and parallelism N. If one of these fails, some state
// is shared across shards or a nondeterministic source (map iteration,
// system DRBG) has leaked into the simulation.

// detBlueprint's 36 resolvers span two single-query blocks per
// vantage, so the campaigns below cross a shard boundary.
func detBlueprint(t *testing.T) *resolver.Blueprint {
	t.Helper()
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           2022,
		ResolverCounts: resolver.ScaledCounts(36),
	})
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestSingleQueryDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []SingleQuerySample {
		samples, err := RunSingleQuery(SingleQueryConfig{
			Blueprint:   detBlueprint(t),
			Parallelism: par,
			Rounds:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no samples")
	}
	for _, par := range []int{2, 8} {
		got := run(par)
		if !reflect.DeepEqual(base, got) {
			for i := range base {
				if base[i] != got[i] {
					t.Fatalf("parallelism %d: first differing sample %d:\n1: %+v\n%d: %+v",
						par, i, base[i], par, got[i])
				}
			}
			t.Fatalf("parallelism %d: sample streams differ in length", par)
		}
	}
}

// TestWebDeterministicAcrossParallelism runs five resolvers: two web
// blocks per vantage.
func TestWebDeterministicAcrossParallelism(t *testing.T) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           2022,
		ResolverCounts: map[geo.Continent]int{geo.EU: 3, geo.NA: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) []WebSample {
		samples, err := RunWeb(WebConfig{
			Blueprint:   bp,
			Parallelism: par,
			Protocols:   []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH},
			Pages:       []*pages.Page{pages.ByName("wikipedia"), pages.ByName("google")},
			Loads:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no samples")
	}
	for _, par := range []int{3, 8} {
		if got := run(par); !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism %d produced a different web sample stream", par)
		}
	}
}

// TestSingleQueryRunToRunIdentity pins down absolute reproducibility:
// two runs of the same sharded campaign in the same process must agree
// bit for bit (this catches map-iteration and system-DRBG leaks that
// parallelism comparisons alone might miss).
func TestSingleQueryRunToRunIdentity(t *testing.T) {
	run := func() []SingleQuerySample {
		samples, err := RunSingleQuery(SingleQueryConfig{Blueprint: detBlueprint(t), Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical-seed campaign runs produced different samples")
	}
}

// TestAccessGridDeterministicAcrossParallelism extends the campaign
// guarantee to the E19/E21 profile grids: the same blueprint rebuilt
// behind each access profile must yield a byte-identical sample stream
// at parallelism 1 and N. The grid also exercises the netem link model
// (bandwidth queues, access links, burst loss on the satellite profile),
// so a divergence here points at link state leaking across shards.
func TestAccessGridDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) [][]SingleQuerySample {
		var cells [][]SingleQuerySample
		for _, profile := range []string{"fiber", "3g", "satellite"} {
			bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
				Seed:           2022,
				ResolverCounts: resolver.ScaledCounts(6),
				Access:         profile,
			})
			if err != nil {
				t.Fatal(err)
			}
			samples, err := RunSingleQuery(SingleQueryConfig{
				Blueprint:   bp,
				Parallelism: par,
				Protocols:   []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoT},
			})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, samples)
		}
		return cells
	}
	base := run(1)
	if len(base[0]) == 0 {
		t.Fatal("empty fiber cell")
	}
	if got := run(8); !reflect.DeepEqual(base, got) {
		t.Fatal("access grid differs between parallelism 1 and 8")
	}
}

// TestScheduledCampaignDeterministicAndPaced drives a single-query
// campaign over a time-varying burst-loss schedule (the E20 shape) and
// checks (a) two same-seed runs agree exactly, and (b) QuerySpacing
// paces the samples of each shard apart so the schedule's phases are
// all visited.
func TestScheduledCampaignDeterministicAndPaced(t *testing.T) {
	const spacing = 2 * time.Second
	run := func(par int) []SingleQuerySample {
		bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
			Seed:           2022,
			ResolverCounts: resolver.ScaledCounts(8),
			PathPhases: []resolver.PathPhase{
				{At: 0, Loss: resolver.DefaultLoss},
				{At: 20 * time.Second, Burst: netem.BurstLoss{PGoodBad: 0.08, PBadGood: 0.25, LossBad: 0.45}},
				{At: 60 * time.Second, Loss: resolver.DefaultLoss},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := RunSingleQuery(SingleQueryConfig{
			Blueprint:    bp,
			Parallelism:  par,
			Protocols:    []dox.Protocol{dox.DoQ, dox.DoT},
			QuerySpacing: spacing,
		})
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	base := run(1)
	if got := run(4); !reflect.DeepEqual(base, got) {
		t.Fatal("scheduled campaign differs between parallelism 1 and 4")
	}
	var maxAt time.Duration
	for i, s := range base {
		if i > 0 && base[i-1].Vantage == s.Vantage && s.At > 0 && base[i-1].At > 0 {
			if gap := s.At - base[i-1].At; gap < spacing {
				t.Fatalf("samples %d and %d only %v apart, want >= %v", i-1, i, gap, spacing)
			}
		}
		if s.At > maxAt {
			maxAt = s.At
		}
	}
	if maxAt < 20*time.Second {
		t.Fatalf("campaign ended at %v, never reached the burst phase", maxAt)
	}
}

// TestShardedSampleStreamShape checks that the sharded path covers the
// full matrix exactly once with global resolver indices, across more
// than one resolver block per vantage.
func TestShardedSampleStreamShape(t *testing.T) {
	bp := detBlueprint(t)
	if n := len(campaign.Blocks(len(bp.Profiles), singleQueryResolverBlock)); n < 2 {
		t.Fatalf("%d resolvers make %d block(s) of %d; the test needs a block boundary",
			len(bp.Profiles), n, singleQueryResolverBlock)
	}
	samples, err := RunSingleQuery(SingleQueryConfig{Blueprint: bp, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	nRes := len(bp.Profiles)
	nVan := len(bp.Vantages)
	if want := nVan * nRes * len(dox.Protocols); len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	type key struct {
		vantage string
		res     int
		proto   dox.Protocol
	}
	seen := map[key]int{}
	for _, s := range samples {
		if s.ResolverIdx < 0 || s.ResolverIdx >= nRes {
			t.Fatalf("sample has out-of-range global resolver index %d", s.ResolverIdx)
		}
		seen[key{s.Vantage, s.ResolverIdx, s.Protocol}]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("combination %+v measured %d times", k, n)
		}
	}
}

// TestPacketTraceIdenticalGivenSeed is the strongest determinism
// regression test: two same-seed campaigns must emit bit-identical
// packet sequences, not just equal aggregates. It is also the consumer
// of netem's Network.Trace hook — if a nondeterministic source (map
// iteration waking tasks, the system DRBG behind crypto key
// generation) leaks back in, the first diverging packet localizes it.
// Each vantage runs as one shard, its trace hook installed before the
// shard body starts.
func TestPacketTraceIdenticalGivenSeed(t *testing.T) {
	type packet struct {
		vantage int
		now     time.Duration
		proto   netem.Proto
		src     string
		payload string
	}
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           77,
		ResolverCounts: map[geo.Continent]int{geo.EU: 2, geo.AS: 1},
		Loss:           0.01, // loss exercises the retransmission paths
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SingleQueryConfig{Blueprint: bp}
	cfg.defaults()
	run := func() []packet {
		var trace []packet
		for v := range bp.Vantages {
			u, err := bp.Instantiate(bp.Seed+int64(v), resolver.Scope{Vantages: []int{v}})
			if err != nil {
				t.Fatal(err)
			}
			u.Net.Trace = func(d netem.Datagram, now time.Duration) {
				trace = append(trace, packet{v, now, d.Proto, d.Src.String(), string(d.Payload)})
			}
			u.W.Go(func() { singleQueryShardBody(u, u.Vantages[0], cfg) })
			u.W.Run()
			u.W.Shutdown()
		}
		return trace
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty packet trace")
	}
	if len(a) != len(b) {
		t.Fatalf("packet counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("first diverging packet at %d: vantage %d %v %d %s vs vantage %d %v %d %s",
				i, a[i].vantage, a[i].now, a[i].proto, a[i].src, b[i].vantage, b[i].now, b[i].proto, b[i].src)
		}
	}
}
