package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestMedianDuration(t *testing.T) {
	in := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	if got := MedianDuration(in); got != 2*time.Second {
		t.Errorf("got %v", got)
	}
	even := []time.Duration{time.Second, 3 * time.Second}
	if got := MedianDuration(even); got != 2*time.Second {
		t.Errorf("even: got %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFQuantileMedian(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30})
	if got := c.Median(); got != 20 {
		t.Errorf("median = %v", got)
	}
}

// TestCDFQuantileMatchesPercentile pins the fast path that interpolates
// over the CDF's already-sorted samples to the batch Percentile
// definition.
func TestCDFQuantileMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	c := NewCDF(xs)
	for q := 0.0; q <= 1.0; q += 0.01 {
		if got, want := c.Quantile(q), Percentile(xs, q*100); got != want {
			t.Fatalf("Quantile(%v) = %v, want Percentile %v", q, got, want)
		}
	}
}

// TestMedianIntegerNoOverflow is the satellite regression: the even-
// length midpoint must not overflow for extreme values, as (a+b)/2 did.
func TestMedianIntegerNoOverflow(t *testing.T) {
	big := time.Duration(math.MaxInt64)
	if got := MedianDuration([]time.Duration{big - 1, big}); got != big-1 {
		t.Errorf("MedianDuration near MaxInt64 = %v, want %v", got, big-1)
	}
	if got := medianInteger([]int{math.MaxInt, math.MaxInt - 2}); got != math.MaxInt-1 {
		t.Errorf("medianInteger near MaxInt = %v, want %v", got, math.MaxInt-1)
	}
	if got := medianInteger([]int{math.MinInt, math.MinInt + 2}); got != math.MinInt+1 {
		t.Errorf("medianInteger near MinInt = %v, want %v", got, math.MinInt+1)
	}
	if got := medianInteger([]int{5, 1, 9}); got != 5 {
		t.Errorf("medianInteger of odd length = %v, want 5", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := RelDiff(110, 100); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("RelDiff(110,100) = %v", got)
	}
	if got := RelDiff(90, 100); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("RelDiff(90,100) = %v", got)
	}
	if got := RelDiff(5, 0); got != 0 {
		t.Errorf("RelDiff with zero baseline = %v", got)
	}
}

func TestPropertyMedianBetweenMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		s := append([]float64(nil), clean...)
		sort.Float64s(s)
		return m >= s[0] && m <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCDFAtMonotonic(t *testing.T) {
	f := func(xs []float64, probe1, probe2 float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if math.IsNaN(probe1) || math.IsNaN(probe2) {
			return true
		}
		c := NewCDF(clean)
		lo, hi := probe1, probe2
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 0, 1)
	if len([]rune(s)) != 3 {
		t.Errorf("sparkline length = %d, want 3", len([]rune(s)))
	}
	r := []rune(s)
	if r[0] >= r[1] || r[1] >= r[2] {
		t.Errorf("sparkline not increasing: %q", s)
	}
}
