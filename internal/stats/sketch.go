package stats

import (
	"math"
	"time"
)

// Sketch layout: one bucket per 1/sketchSubBuckets of an octave (a
// doubling), covering 2^sketchMinExp through 2^sketchMaxExp, plus a
// dedicated bucket for non-positive samples. A sketch stores only the
// window of buckets its samples have reached, so one that sees a few
// octaves of latencies holds a few KiB, and no sketch ever exceeds the
// full range (sketchBuckets × 8 B ≈ 20 KiB) however many samples stream
// through — the property that lets million-query campaigns aggregate
// per shard without holding samples.
const (
	sketchSubBuckets = 32
	sketchMinExp     = -16
	sketchMaxExp     = 64
	sketchBuckets    = (sketchMaxExp - sketchMinExp) * sketchSubBuckets
)

// SketchRelError bounds the relative error of Sketch.Quantile for
// positive samples: a bucket spans a 2^(1/32) ratio and the reported
// value is its geometric midpoint, so no in-range sample is misreported
// by more than half a bucket (~1.1%); callers should allow this much
// slack when comparing against exact order statistics.
const SketchRelError = 0.011

// Sketch is a bounded-memory streaming quantile summary: a log-bucketed
// histogram in the spirit of HDR histograms, sized for the evaluation's
// sample ranges (durations in nanoseconds, byte counts). Unlike CDF it
// never stores samples, so memory stays bounded as campaigns grow by
// orders of magnitude, and two sketches merge exactly: feeding a sample
// stream through per-shard sketches and merging them (in any order)
// yields bit-identical counts — and therefore byte-identical reports —
// to streaming the whole campaign through one sketch.
type Sketch struct {
	// counts[i] is bucket lo+i; every bucket outside the window is zero.
	counts []uint64
	lo     int
	// nonPos counts samples <= 0 (a lossless DoUDP resolve can be
	// measured as 0 on a cache hit answered in the same event).
	nonPos   uint64
	n        uint64
	sum      float64
	min, max float64
}

// NewSketch returns an empty sketch. It holds no buckets until the
// first positive sample arrives.
func NewSketch() *Sketch {
	return &Sketch{
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// grow widens the bucket window to cover [lo, hi). A side that has to
// grow grows by at least the window's size (and at least one octave),
// so a stream drifting one way reallocates only logarithmically often;
// the window never leaves [0, sketchBuckets).
func (s *Sketch) grow(lo, hi int) {
	n := len(s.counts)
	oldLo, oldHi := s.lo, s.lo+n
	if n == 0 {
		oldLo, oldHi = lo, lo
	} else if lo >= oldLo && hi <= oldHi {
		return
	}
	slack := max(n, sketchSubBuckets)
	newLo, newHi := oldLo, oldHi
	if lo < oldLo {
		newLo = max(min(lo, oldLo-slack), 0)
	}
	if hi > oldHi {
		newHi = min(max(hi, oldHi+slack), sketchBuckets)
	}
	c := make([]uint64, newHi-newLo)
	copy(c[oldLo-newLo:], s.counts)
	s.lo, s.counts = newLo, c
}

// sketchIndex maps a positive sample to its bucket.
func sketchIndex(x float64) int {
	i := int(math.Floor(math.Log2(x)*sketchSubBuckets)) - sketchMinExp*sketchSubBuckets
	if i < 0 {
		i = 0
	}
	if i >= sketchBuckets {
		i = sketchBuckets - 1
	}
	return i
}

// sketchValue is the representative value of bucket i: the geometric
// midpoint of the bucket's edges.
func sketchValue(i int) float64 {
	exp := (float64(i)+0.5)/sketchSubBuckets + sketchMinExp
	return math.Exp2(exp)
}

// Add records one sample.
func (s *Sketch) Add(x float64) {
	s.n++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= 0 {
		s.nonPos++
		return
	}
	i := sketchIndex(x)
	if i < s.lo || i >= s.lo+len(s.counts) {
		s.grow(i, i+1)
	}
	s.counts[i-s.lo]++
}

// AddDuration records a duration sample in nanoseconds.
func (s *Sketch) AddDuration(d time.Duration) { s.Add(float64(d)) }

// N returns the number of recorded samples.
func (s *Sketch) N() int { return int(s.n) }

// Sum returns the sum of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, 0 for an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min and Max are exact (tracked outside the buckets).
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest recorded sample, 0 for an empty sketch.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-th quantile (0..1) as the smallest recorded
// bucket whose cumulative count reaches ceil(q*n) — the order-statistic
// definition — with at most SketchRelError relative error for positive
// samples. Quantile(0) and Quantile(1) are the exact min and max.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	target := uint64(math.Ceil(q * float64(s.n)))
	if target < 1 {
		target = 1
	}
	if target > s.n {
		target = s.n
	}
	cum := s.nonPos
	if cum >= target {
		// The quantile falls among the non-positive samples; min bounds
		// them from below and 0 from above.
		return s.min
	}
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			v := sketchValue(s.lo + i)
			// The exact extremes sharpen the outermost buckets.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// QuantileDuration returns Quantile over duration samples.
func (s *Sketch) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// Median returns the 0.5 quantile.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// MedianDuration returns the 0.5 quantile as a duration.
func (s *Sketch) MedianDuration() time.Duration { return s.QuantileDuration(0.5) }

// Merge folds o into s. Bucket counts, N, min and max — and therefore
// every Quantile — merge exactly and order-independently, which is what
// keeps sharded campaigns byte-identical at any parallelism. Sum is
// float addition and therefore order-sensitive in its last bits, so
// campaigns must merge per-shard sketches in shard order (they do: the
// gather step is ordered by shard index).
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if len(o.counts) > 0 {
		s.grow(o.lo, o.lo+len(o.counts))
		dst := s.counts[o.lo-s.lo:]
		for i, c := range o.counts {
			dst[i] += c
		}
	}
	s.nonPos += o.nonPos
	s.n += o.n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}
