package measure

import (
	"fmt"
	"math/rand"
)

// ZipfWorkload generates a deterministic, popularity-skewed query-name
// stream: rank 0 is the most popular name, and P(rank=k) follows a Zipf
// law with exponent Skew. This models many users behind a shared
// resolver — the workload regime in which the paper attributes most of
// the encrypted-transport resolution-time spread to resolver-side
// caching — instead of the unique cold names of the single-query
// campaign.
//
// The name table is precomputed at construction, so drawing from the
// workload allocates nothing: a million-query campaign costs the fixed
// table plus the fixed-size generator state.
type ZipfWorkload struct {
	zipf  *rand.Zipf
	names []string
}

// NewZipfWorkload builds a workload over a universe of n names with
// the given skew (rand.Zipf requires skew > 1; higher = more skewed,
// web-like popularity sits around 1.2–2). All randomness comes from
// rng, so equal (rng seed, skew, n) yields the identical stream.
func NewZipfWorkload(rng *rand.Rand, skew float64, n int) *ZipfWorkload {
	if n < 1 {
		n = 1
	}
	if skew <= 1 {
		skew = 1.0001
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("site-%06d.example", i)
	}
	return &ZipfWorkload{
		zipf:  rand.NewZipf(rng, skew, 1, uint64(n-1)),
		names: names,
	}
}

// Next draws the next query: the name and its popularity rank
// (0 = most popular).
func (w *ZipfWorkload) Next() (string, uint64) {
	r := w.zipf.Uint64()
	return w.names[r], r
}
