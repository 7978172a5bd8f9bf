package main

import (
	"math"
	"sort"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. The Go tables below are the source of truth; `-render` writes
// BENCHMARK.json from them and the tests check the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the simulator pays for a result: host
// time, allocations and memory per simulated operation. Bound is the
// share of the parent's median by which the metric may worsen. Each is
// about three times the widest spread seen between ten runs with ten
// seeds on the reference machine (README, "Steadiness"): host speed on
// the shared sandbox drifts by several percent over minutes, and the
// seed decides how many queries go unanswered.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.20},
	{Name: "ops_per_s_par", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.08},
	{Name: "bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// cpuBuckets are the cpu_share buckets of the workload attribution, in
// report order: the repo's layers, then the harness around them, then
// what the Go runtime and crypto library spend on their behalf.
var cpuBuckets = []string{
	"sim", "netem", "bytepool", "tlsmini", "tcpsim", "quic", "h2", "h3",
	"dnsmsg", "cache", "netapi", "dox", "dnsproxy", "browser", "resolver",
	"harness", "crypto", "go_sched", "go_mem", "other",
}

// attribution metrics come from outside the layers: profile samples,
// runtime/metrics, the byte pool's global counters and the campaign
// results themselves.
var attribution = []metricDef{
	{Name: "gc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "bytepool.miss_share", Unit: "ratio", Better: "lower"},
	{Name: "bytepool.leases_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "campaign.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "campaign.shards", Unit: "count", Better: "lower"},
	{Name: "campaign.fail_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// perLayer is the full per-layer list: cpu shares, attribution, then
// two numbers per probe.
func perLayer() []metricDef {
	var defs []metricDef
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{Name: "cpu_share." + b, Unit: "ratio", Better: "lower"})
	}
	defs = append(defs, attribution...)
	for _, p := range probes {
		defs = append(defs,
			metricDef{Name: p.name + ".ns", Unit: "ns/op", Better: "lower"},
			metricDef{Name: p.name + ".allocs", Unit: "allocs/op", Better: "lower"})
	}
	return defs
}

// worsening is how far cur is on the wrong side of base, as a share of
// base (negative when cur is better).
func (d metricDef) worsening(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
