package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// sketchRelError bounds the relative error of Sketch.Quantile for
// positive samples: a bucket spans a 2^(1/32) ratio and the reported
// value is its geometric midpoint, so no in-range sample is misreported
// by more than half a bucket (~1.1%).
const sketchRelError = 0.011

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if s.N() != 0 || s.Quantile(0.5) != 0 || s.Median() != 0 || s.Sum() != 0 {
		t.Errorf("empty sketch not all-zero: n=%d q50=%v sum=%v", s.N(), s.Quantile(0.5), s.Sum())
	}
}

func TestSketchMinMaxExact(t *testing.T) {
	s := NewSketch()
	for _, x := range []float64{3, 0.125, 900, 41, 7} {
		s.Add(x)
	}
	if s.Min() != 0.125 || s.Max() != 900 {
		t.Errorf("min=%v max=%v, want 0.125/900", s.Min(), s.Max())
	}
	if got := s.Quantile(0); got != 0.125 {
		t.Errorf("Quantile(0) = %v, want exact min", got)
	}
	if got := s.Quantile(1); got != 900 {
		t.Errorf("Quantile(1) = %v, want exact max", got)
	}
}

func TestSketchNonPositiveSamples(t *testing.T) {
	s := NewSketch()
	s.Add(0)
	s.Add(0)
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("median of {0,0,0,10} = %v, want 0", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("max = %v", got)
	}
}

// exactOrderStat returns the order statistic Sketch.Quantile targets:
// the ceil(q*n)-th smallest sample.
func exactOrderStat(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// TestSketchQuantileErrorBound checks the documented guarantee: for
// positive in-range samples every quantile is within sketchRelError of
// the exact order statistic.
func TestSketchQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch()
	xs := make([]float64, 4096)
	for i := range xs {
		// Log-uniform over ~9 orders of magnitude.
		xs[i] = math.Exp2(rng.Float64()*30 - 5)
		s.Add(xs[i])
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		exact := exactOrderStat(xs, q)
		got := s.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > sketchRelError+1e-9 {
			t.Errorf("q=%v: sketch %v vs exact %v (rel err %.4f > %.4f)", q, got, exact, rel, sketchRelError)
		}
	}
}

// TestPropertySketchConvergesToPercentile is the satellite property
// test: on the same samples, the streaming sketch's quantiles converge
// to stats.Percentile (the interpolated batch definition) — within the
// bucket resolution plus the gap between adjacent order statistics.
func TestPropertySketchConvergesToPercentile(t *testing.T) {
	f := func(raw []float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a positive in-range sample set: cleaned quick-check
		// values plus enough lognormal filler for stable percentiles.
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > math.Exp2(sketchMinExp) && x < math.Exp2(sketchMaxExp) && !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		for len(xs) < 3000 {
			xs = append(xs, math.Exp(rng.NormFloat64()))
		}
		s := NewSketch()
		for _, x := range xs {
			s.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			exact := Percentile(xs, q*100)
			got := s.Quantile(q)
			// The interpolated percentile lies between two adjacent
			// order statistics; the sketch reports one of them to
			// within sketchRelError. Bound the total disagreement by
			// the wider of the two neighbours' spread plus the bucket
			// error.
			k := int(math.Ceil(q * float64(len(sorted))))
			lo, hi := sorted[maxInt(k-2, 0)], sorted[minInt(k, len(sorted)-1)]
			slack := (hi - lo) + exact*sketchRelError + 1e-12
			if math.Abs(got-exact) > slack {
				t.Logf("q=%v: sketch %v vs percentile %v (slack %v)", q, got, exact, slack)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSketchMergeExact checks the determinism-bearing property: feeding
// a stream through per-shard sketches and merging equals one sketch fed
// the whole stream, exactly — not approximately.
func TestSketchMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64() * 2)
	}
	whole := NewSketch()
	for _, x := range xs {
		whole.Add(x)
	}
	const shards = 7
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch()
	}
	for i, x := range xs {
		parts[i%shards].Add(x)
	}
	// Merge in a scrambled order: the result must not depend on it.
	merged := NewSketch()
	for _, i := range []int{3, 0, 6, 1, 5, 2, 4} {
		merged.Merge(parts[i])
	}
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge lost samples: n=%d/%d", merged.N(), whole.N())
	}
	// Sum is float addition, which is not associative: only counts,
	// min/max and therefore quantiles are exactly order-independent.
	if rel := math.Abs(merged.Sum()-whole.Sum()) / whole.Sum(); rel > 1e-9 {
		t.Fatalf("merged sum %v vs whole %v", merged.Sum(), whole.Sum())
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if a, b := merged.Quantile(q), whole.Quantile(q); a != b {
			t.Errorf("q=%v: merged %v != whole %v", q, a, b)
		}
	}
}

func TestSketchDurations(t *testing.T) {
	s := NewSketch()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		s.AddDuration(d)
	}
	med := s.MedianDuration()
	if med < 1900*time.Microsecond || med > 2100*time.Microsecond {
		t.Errorf("median duration %v, want ~2ms", med)
	}
}

// BenchmarkSketchAdd pins the streaming hot path: zero allocations per
// sample.
func BenchmarkSketchAdd(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i%1000+1) * 1e6)
	}
}

// refSketch is the full-array layout the windowed Sketch replaced: every
// bucket allocated up front. Bucket choice and the quantile walk are the
// same, so the two must agree exactly on every query.
type refSketch struct {
	counts           [sketchBuckets]uint64
	nonPos, n        uint64
	minimum, maximum float64
}

func newRefSketch() *refSketch {
	return &refSketch{minimum: math.Inf(1), maximum: math.Inf(-1)}
}

func (r *refSketch) add(x float64) {
	r.n++
	r.minimum, r.maximum = math.Min(r.minimum, x), math.Max(r.maximum, x)
	if x <= 0 {
		r.nonPos++
		return
	}
	r.counts[sketchIndex(x)]++
}

func (r *refSketch) merge(o *refSketch) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.nonPos += o.nonPos
	r.n += o.n
	r.minimum, r.maximum = math.Min(r.minimum, o.minimum), math.Max(r.maximum, o.maximum)
}

func (r *refSketch) quantile(q float64) float64 {
	switch {
	case r.n == 0:
		return 0
	case q <= 0:
		return r.minimum
	case q >= 1:
		return r.maximum
	}
	target := min(max(uint64(math.Ceil(q*float64(r.n))), 1), r.n)
	cum := r.nonPos
	if cum >= target {
		return r.minimum
	}
	for i, c := range r.counts {
		if cum += c; cum >= target {
			return math.Min(math.Max(sketchValue(i), r.minimum), r.maximum)
		}
	}
	return r.maximum
}

// pair feeds the same samples to a windowed sketch and its reference.
type pair struct {
	s *Sketch
	r *refSketch
}

func newPair() pair { return pair{NewSketch(), newRefSketch()} }

func (p pair) add(xs ...float64) {
	for _, x := range xs {
		p.s.Add(x)
		p.r.add(x)
	}
}

func (p pair) merge(o pair) {
	p.s.Merge(o.s)
	p.r.merge(o.r)
}

// check compares N, Min, Max and a grid of quantiles, and that the window
// never leaves the full bucket range.
func (p pair) check(t *testing.T, what string) {
	t.Helper()
	s, r := p.s, p.r
	if s.N() != int(r.n) {
		t.Fatalf("%s: N = %d, reference %d", what, s.N(), r.n)
	}
	if r.n > 0 && (s.Min() != r.minimum || s.Max() != r.maximum) {
		t.Fatalf("%s: min/max = %v/%v, reference %v/%v", what, s.Min(), s.Max(), r.minimum, r.maximum)
	}
	for i := 0; i <= 200; i++ {
		q := float64(i) / 200
		if got, want := s.Quantile(q), r.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", what, q, got, want)
		}
	}
	if s.lo < 0 || s.lo+len(s.counts) > sketchBuckets {
		t.Fatalf("%s: window [%d, %d) outside [0, %d)", what, s.lo, s.lo+len(s.counts), sketchBuckets)
	}
}

// TestSketchWindowMatchesFullArray checks that storing only the touched
// window of buckets changes no answer: random streams of every shape,
// merged in both orders, with empty sketches and disjoint windows.
func TestSketchWindowMatchesFullArray(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	streams := []struct {
		name string
		gen  func(i int) float64
	}{
		{"lognormal", func(int) float64 { return math.Exp(rng.NormFloat64() * 3) }},
		{"latency_ns", func(int) float64 { return 1e6 * math.Exp(rng.NormFloat64()) }},
		{"ascending", func(i int) float64 { return math.Exp2(float64(i)/16 - 10) }},
		{"descending", func(i int) float64 { return math.Exp2(40 - float64(i)/16) }},
		{"with_zeros", func(i int) float64 { return float64(i%3) * rng.Float64() }},
		{"clamped", func(i int) float64 { return math.Exp2(float64(i%2)*200 - 100) }},
	}
	for _, st := range streams {
		name, gen := st.name, st.gen
		whole := newPair()
		a, b := newPair(), newPair()
		for i := 0; i < 2000; i++ {
			x := gen(i)
			whole.add(x)
			if rng.Intn(2) == 0 {
				a.add(x)
			} else {
				b.add(x)
			}
		}
		whole.check(t, name)
		ab, ba := newPair(), newPair()
		ab.merge(a)
		ab.merge(b)
		ba.merge(b)
		ba.merge(a)
		ab.check(t, name+" a+b")
		ba.check(t, name+" b+a")
		for q := 0.0; q <= 1; q += 0.01 {
			if ab.s.Quantile(q) != whole.s.Quantile(q) || ba.s.Quantile(q) != whole.s.Quantile(q) {
				t.Fatalf("%s: merged Quantile(%v) differs from the whole stream", name, q)
			}
		}
	}

	// Empty sketches: merging one in either direction changes nothing.
	e, f := newPair(), newPair()
	e.merge(f)
	e.check(t, "empty+empty")
	full := newPair()
	full.add(3, 0.5, 1e9)
	full.merge(newPair())
	full.check(t, "full+empty")
	e.merge(full)
	e.check(t, "empty+full")

	// Disjoint windows, low-into-high and high-into-low.
	low, high := newPair(), newPair()
	for i := 0; i < 100; i++ {
		low.add(1e-3 * (1 + rng.Float64()))
		high.add(1e12 * (1 + rng.Float64()))
	}
	lh, hl := newPair(), newPair()
	lh.merge(low)
	lh.merge(high)
	hl.merge(high)
	hl.merge(low)
	lh.check(t, "low+high")
	hl.check(t, "high+low")
	low.merge(high)
	low.check(t, "low into high")
}

// TestSketchWindowStaysSmall checks the point of the window: a sketch of
// latencies spanning a few octaves holds a small fraction of the full
// bucket range.
func TestSketchWindowStaysSmall(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 10000; i++ {
		s.AddDuration(time.Duration(1+i%400) * time.Millisecond)
	}
	if n := cap(s.counts); n > sketchBuckets/4 {
		t.Errorf("window capacity %d buckets for ~9 octaves of samples, want <= %d", n, sketchBuckets/4)
	}
}
