// Package stats provides the small statistical toolkit the evaluation
// needs: medians, percentiles, empirical CDFs, and relative-difference
// series, matching how the paper aggregates its measurements.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Median returns the median of xs (mean of the two central elements for
// even lengths). It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	// Midpoint form avoids overflow for extreme values.
	return s[n/2-1]/2 + s[n/2]/2
}

// integer constrains the integer-valued sample types the evaluation
// aggregates (byte counts, virtual-time durations).
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64
}

// midpoint returns the midpoint of a and b without overflowing, the
// integer analogue of Median's overflow-safe midpoint form. For an odd
// sum it rounds toward negative infinity.
func midpoint[T integer](a, b T) T {
	return (a & b) + ((a ^ b) >> 1)
}

// medianInteger is Median over any integer-valued sample type, sharing
// the overflow-safe midpoint with Median.
func medianInteger[T integer](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n%2 == 1 {
		return s[n/2]
	}
	return midpoint(s[n/2-1], s[n/2])
}

// MedianDuration is Median over durations.
func MedianDuration(xs []time.Duration) time.Duration { return medianInteger(xs) }

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks.
//
//simlint:allow deadapi batch reference TestPropertySketchConvergesToPercentile and TestCDFQuantileMatchesPercentile check Sketch and CDF against
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is Percentile over an already-sorted slice, shared by
// Percentile and the CDF accessors so the latter do not re-copy and
// re-sort their samples on every call.
func percentileSorted(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0..1). It interpolates directly
// over the CDF's sorted samples, so each call is O(1) rather than the
// O(n log n) copy-and-sort a Percentile call would pay.
func (c *CDF) Quantile(q float64) float64 {
	return percentileSorted(c.sorted, q*100)
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// RelDiff returns (x-baseline)/baseline, the paper's relative difference
// metric (e.g. "+10%" means 10% slower than the baseline protocol).
func RelDiff(x, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (x - baseline) / baseline
}

// Sparkline renders values (assumed in [lo, hi]) as a unicode mini-chart.
// It is used by the report package to draw CDF shapes in terminals.
func Sparkline(values []float64, lo, hi float64) string {
	if hi <= lo {
		hi = lo + 1
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range values {
		f := (v - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		idx := int(f * float64(len(ramp)-1))
		sb.WriteRune(ramp[idx])
	}
	return sb.String()
}

// FormatPct formats a fraction as a signed percentage.
func FormatPct(f float64) string {
	return fmt.Sprintf("%+.1f%%", f*100)
}
