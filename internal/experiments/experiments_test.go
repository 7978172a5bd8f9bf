package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dox"
	"repro/internal/measure"
	"repro/internal/stats"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{
		Seed:         7,
		Resolvers:    10,
		Rounds:       1,
		WebLoads:     1,
		WebPages:     3,
		WebResolvers: 2,
		ScanScale:    32,
		CacheQueries: 40,
		CacheNames:   60,
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 27 {
		t.Fatalf("registry has %d experiments, want E1..E27", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d is %s, want %s", i, e.ID, want)
		}
		if e.Artifact == "" || e.About == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E4"); !ok {
		t.Error("ByID(E4) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) succeeded")
	}
}

func TestAllExperimentsProduceReports(t *testing.T) {
	r := NewRunner(tiny())
	for _, e := range All() {
		out, err := e.Run(r)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(out) < 40 {
			t.Errorf("%s: suspiciously short report:\n%s", e.ID, out)
		}
		t.Logf("%s (%s):\n%s", e.ID, e.Artifact, out)
	}
}

func TestE1FunnelNumbersExactAtTinyScale(t *testing.T) {
	r := NewRunner(tiny())
	out, err := runE1(r)
	if err != nil {
		t.Fatal(err)
	}
	// With loss disabled in the scan world the funnel is exact.
	for _, want := range []string{"DoQ verified (ALPN)", "verified DoX resolvers"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in E1 output", want)
		}
	}
}

// TestSingleQueryCachedAcrossExperiments calls the single-query cache
// from concurrent goroutines, as RunAll's experiments do: the campaign
// must run once and every caller must share its sample slice.
func TestSingleQueryCachedAcrossExperiments(t *testing.T) {
	r := NewRunner(tiny())
	const callers = 8
	got := make([][]measure.SingleQuerySample, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := range got {
		go func() {
			defer wg.Done()
			samples, err := r.singleQuery()
			if err != nil {
				t.Error(err)
			}
			got[i] = samples
		}()
	}
	wg.Wait()
	if len(got[0]) == 0 {
		t.Fatal("empty single-query campaign")
	}
	for i, samples := range got[1:] {
		if len(samples) == 0 || &samples[0] != &got[0][0] {
			t.Errorf("caller %d got its own campaign instead of the cached one", i+1)
		}
	}
}

// TestReportsDeterministicAcrossParallelism enforces the acceptance
// criterion that every experiment E1-E27 — the DoH3 campaigns and the
// cache/Zipf campaigns included — emits a byte-identical report at
// parallelism 1 and parallelism 8 for the same seed. Each parallelism
// level gets a fresh Runner so campaign caches cannot mask a
// divergence.
func TestReportsDeterministicAcrossParallelism(t *testing.T) {
	reports := func(par int) map[string]string {
		cfg := tiny()
		cfg.Parallelism = par
		r := NewRunner(cfg)
		out := map[string]string{}
		for _, res := range RunAll(r, All(), par) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Experiment.ID, res.Err)
			}
			out[res.Experiment.ID] = res.Output
		}
		return out
	}
	base := reports(1)
	got := reports(8)
	for _, e := range All() {
		if base[e.ID] != got[e.ID] {
			t.Errorf("%s report differs between parallelism 1 and 8:\n--- p1:\n%s\n--- p8:\n%s",
				e.ID, base[e.ID], got[e.ID])
		}
	}
}

// TestE13DoH3QuerySizesBelowDoH enforces the E13 acceptance criterion
// at the campaign level: over the sixth-transport population, DoH3's
// median query size sits strictly below DoH-over-HTTP/2's (QPACK static
// references, no TCP/TLS layering) while staying above DoQ's bare
// stream framing.
func TestE13DoH3QuerySizesBelowDoH(t *testing.T) {
	r := NewRunner(tiny())
	samples, err := r.singleQueryDoH3()
	if err != nil {
		t.Fatal(err)
	}
	med := func(p dox.Protocol, f func(measure.SingleQuerySample) int) float64 {
		var xs []float64
		for _, s := range samples {
			if s.OK && s.Protocol == p {
				xs = append(xs, float64(f(s)))
			}
		}
		if len(xs) == 0 {
			t.Fatalf("no OK samples for %v", p)
		}
		return stats.Median(xs)
	}
	q := func(s measure.SingleQuerySample) int { return s.M.QueryTx }
	if h3, h := med(dox.DoH3, q), med(dox.DoH, q); h3 >= h {
		t.Errorf("DoH3 median query %v B not strictly below DoH %v B", h3, h)
	}
	if h3, dq := med(dox.DoH3, q), med(dox.DoQ, q); h3 <= dq {
		t.Errorf("DoH3 median query %v B not above DoQ %v B", h3, dq)
	}
	total := func(s measure.SingleQuerySample) int {
		return s.M.HandshakeTx + s.M.HandshakeRx + s.M.QueryTx + s.M.QueryRx
	}
	if h3, h := med(dox.DoH3, total), med(dox.DoH, total); h3 >= h {
		t.Logf("note: DoH3 median total %v B not below DoH %v B (Initial padding dominates)", h3, h)
	}
}

// TestE17UncachedSlowerThanCached enforces the E17 acceptance shape at
// campaign level: on the lossless baseline, flushing the resolver cache
// before the measured query makes every transport's median resolve pay
// upstream recursion.
func TestE17UncachedSlowerThanCached(t *testing.T) {
	r := NewRunner(tiny())
	out, err := runE17(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cached", "uncached", "DoQ", "DoT"} {
		if !strings.Contains(out, want) {
			t.Errorf("E17 output missing %q:\n%s", want, out)
		}
	}
	// The recursion-cost column must be positive for every transport:
	// an uncached resolve cannot be faster than a cached one on
	// lossless paths.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		switch fields[0] {
		case "DoUDP", "DoTCP", "DoQ", "DoH", "DoT":
			if strings.HasPrefix(fields[3], "-") {
				t.Errorf("%s: uncached faster than cached: %s", fields[0], line)
			}
		}
	}
}

// TestE19GridCoversAllProfiles checks the access grid reports one row
// per named profile and that the satellite handshake medians dwarf
// fiber's (the orbit RTT must be visible, or the access link is not
// being applied).
func TestE19GridCoversAllProfiles(t *testing.T) {
	r := NewRunner(tiny())
	out, err := runE19(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fiber", "cable", "4g", "3g", "satellite"} {
		if !strings.Contains(out, want) {
			t.Errorf("E19 output missing profile %q:\n%s", want, out)
		}
	}
	cells, err := r.access()
	if err != nil {
		t.Fatal(err)
	}
	med := func(profile string, p dox.Protocol) float64 {
		for _, c := range cells {
			if c.profile != profile {
				continue
			}
			var xs []float64
			for _, s := range c.samples {
				if s.OK && s.Protocol == p {
					xs = append(xs, float64(s.Handshake))
				}
			}
			return stats.Median(xs)
		}
		t.Fatalf("no cell for profile %q", profile)
		return 0
	}
	fiber, sat := med("fiber", dox.DoQ), med("satellite", dox.DoQ)
	// The satellite profile adds 280ms of one-way orbit latency, so a
	// one-round-trip handshake gains ~560ms over fiber.
	if sat < fiber+float64(500*time.Millisecond) {
		t.Errorf("satellite DoQ handshake median %.1fms not >= fiber %.1fms + 500ms orbit RTT",
			sat/1e6, fiber/1e6)
	}
}

// TestE20DoQTailBeatsTCPTransports enforces the E20 acceptance
// criterion at campaign level: in the bursty windows of the schedule,
// DoQ's resolve-time tail must sit below DoT's and DoH's — QUIC's probe
// timeout undercuts the TCP transports' RTO under the same loss bursts.
func TestE20DoQTailBeatsTCPTransports(t *testing.T) {
	// Tail quantiles need more samples than tiny()'s ten resolvers
	// provide: at ~25 bursty samples per transport, p95 is decided by a
	// single exchange's burst luck rather than by the recovery timers.
	cfg := tiny()
	cfg.Resolvers = 24
	r := NewRunner(cfg)
	samples, err := r.burstLoss()
	if err != nil {
		t.Fatal(err)
	}
	tail := func(p dox.Protocol) float64 {
		var xs []float64
		for _, s := range samples {
			if s.OK && s.Protocol == p && e20InBurst(s.At) {
				xs = append(xs, float64(s.Resolve))
			}
		}
		if len(xs) < 5 {
			t.Fatalf("only %d bursty samples for %v; schedule phases not visited", len(xs), p)
		}
		// p90, the report's headline tail (see runE20: p95 is one
		// exchange's burst luck at this scale).
		return stats.NewCDF(xs).Quantile(0.90)
	}
	doq, dot, doh := tail(dox.DoQ), tail(dox.DoT), tail(dox.DoH)
	if doq >= dot {
		t.Errorf("DoQ bursty p90 %.1fms not below DoT %.1fms", doq/1e6, dot/1e6)
	}
	if doq >= doh {
		t.Errorf("DoQ bursty p90 %.1fms not below DoH %.1fms", doq/1e6, doh/1e6)
	}
}

// TestE16ReportShape checks the E16 grid covers every skew/TTL cell.
func TestE16ReportShape(t *testing.T) {
	r := NewRunner(tiny())
	out, err := runE16(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"30s", "5m0s", "1h0m0s", "hit ratio", "centre cell"} {
		if !strings.Contains(out, want) {
			t.Errorf("E16 output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllOrderAndCaching checks that RunAll returns results in input
// order and that shared campaigns still run once under concurrency.
func TestRunAllOrderAndCaching(t *testing.T) {
	r := NewRunner(tiny())
	var emitted []string
	results := RunAllFunc(r, All(), 4, func(res Result) {
		emitted = append(emitted, res.Experiment.ID)
	})
	if len(results) != len(All()) {
		t.Fatalf("got %d results", len(results))
	}
	for i, e := range All() {
		if results[i].Experiment.ID != e.ID {
			t.Fatalf("result %d is %s, want %s", i, results[i].Experiment.ID, e.ID)
		}
		if emitted[i] != e.ID {
			t.Fatalf("emit %d was %s, want input order %s", i, emitted[i], e.ID)
		}
		if results[i].Err != nil {
			t.Errorf("%s: %v", e.ID, results[i].Err)
		}
	}
	a, err := r.singleQuery()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.singleQuery()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("single-query campaign was not cached across RunAll")
	}
}

// TestRelDiffSkipsAndPools pins the skip and pooling rules of the
// relative-difference core behind Fig. 3 and Fig. 4 on hand-built
// samples.
func TestRelDiffSkipsAndPools(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	sample := func(vantage string, resolver int, page string, p dox.Protocol, plt int) measure.WebSample {
		return measure.WebSample{Vantage: vantage, ResolverIdx: resolver, Page: page, Protocol: p, PLT: ms(plt), OK: true}
	}
	samples := []measure.WebSample{
		// Two resolvers' combinations in the same (v1, p1) cell.
		sample("v1", 0, "p1", dox.DoUDP, 100),
		sample("v1", 0, "p1", dox.DoQ, 110),
		sample("v1", 0, "p1", dox.DoH, 90),
		sample("v1", 1, "p1", dox.DoUDP, 200),
		sample("v1", 1, "p1", dox.DoH, 300),
		// No baseline samples (the failed one does not count): skipped.
		sample("v1", 2, "p2", dox.DoH, 100),
		{Vantage: "v1", ResolverIdx: 2, Page: "p2", Protocol: dox.DoUDP, PLT: ms(100)},
		// A zero-median baseline: skipped.
		sample("v2", 0, "p1", dox.DoUDP, 0),
		sample("v2", 0, "p1", dox.DoH, 100),
	}
	d := relDiff(samples, plt, dox.DoUDP)

	if len(d.cells) != 1 {
		t.Fatalf("got %d grid cells, want only (v1, p1): %v", len(d.cells), d.cells)
	}
	cell := d.cells[cellKey{"v1", "p1"}]
	if got := len(cell[dox.DoH]); got != 2 {
		t.Errorf("(v1, p1) pools %d DoH entries, want one per resolver (2)", got)
	}
	doh := d.series[dox.DoH]
	if len(doh) != 2 || len(d.series[dox.DoQ]) != 1 {
		t.Fatalf("series DoH %v, DoQ %v: want 2 and 1 entries", doh, d.series[dox.DoQ])
	}
	if lo, hi := min(doh[0], doh[1]), max(doh[0], doh[1]); math.Abs(lo+0.1) > 1e-9 || math.Abs(hi-0.5) > 1e-9 {
		t.Errorf("DoH series %v, want {-10%%, +50%%}", doh)
	}
	// DoH is slower than the baseline in exactly one combination.
	if got := positives(doh); got != 1 {
		t.Errorf("positives(DoH) = %d, want 1", got)
	}
}
