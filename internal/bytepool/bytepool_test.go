package bytepool

import "testing"

// TestGetPicksSmallestFittingTier checks that a lease comes from the
// smallest tier that holds the request, and that requests past the top
// tier are allocated at their exact size.
func TestGetPicksSmallestFittingTier(t *testing.T) {
	var p Pool
	top := tierCaps[len(tierCaps)-1]
	cases := []struct{ n, wantCap int }{
		{0, 512},
		{1, 512},
		{512, 512},
		{513, 2048},
		{2048, 2048},
		{2049, 18432},
		{top, top},
		{top + 1, top + 1},
	}
	for _, c := range cases {
		b := p.Get(c.n)
		if len(b) != 0 || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len 0 cap %d", c.n, len(b), cap(b), c.wantCap)
		}
	}
}

// TestPutReturnsToTier checks that a returned buffer is the next lease
// of its tier, emptied, and that other tiers are unaffected.
func TestPutReturnsToTier(t *testing.T) {
	var p Pool
	b := append(p.Get(100), "payload"...)
	p.Put(b)
	if got := p.Get(2000); cap(got) != 2048 {
		t.Fatalf("Get(2000) after a 512-tier Put: cap %d, want 2048", cap(got))
	}
	got := p.Get(300)
	if cap(got) != 512 || len(got) != 0 || &got[:1][0] != &b[0] {
		t.Fatalf("Get after Put: len %d cap %d, want the returned buffer emptied", len(got), cap(got))
	}
}

// TestPutDropsForeignBuffers checks that Put keeps only buffers whose
// capacity is exactly a tier's: oversized and foreign buffers go to the
// GC instead of polluting a free list.
func TestPutDropsForeignBuffers(t *testing.T) {
	var p Pool
	top := tierCaps[len(tierCaps)-1]
	for _, c := range []int{1, 511, 513, 1000, 4096, top + 1} {
		p.Put(make([]byte, 0, c))
	}
	p.Put(p.Get(top + 1)) // an oversized lease is dropped again
	for i, free := range p.free {
		if len(free) != 0 {
			t.Errorf("tier %d (cap %d) kept %d foreign buffers", i, tierCaps[i], len(free))
		}
	}
	// A slice of a tier buffer whose capacity still matches is accepted.
	p.Put(make([]byte, 10, 2048)[:3])
	if len(p.free[1]) != 1 {
		t.Errorf("exact-capacity buffer not kept: tier lengths %d %d %d", len(p.free[0]), len(p.free[1]), len(p.free[2]))
	}
}

// TestPutBoundedPerTier checks the maxPerTier bound on each free list.
func TestPutBoundedPerTier(t *testing.T) {
	var p Pool
	for i := 0; i < maxPerTier+10; i++ {
		p.Put(make([]byte, 0, 512))
	}
	if n := len(p.free[0]); n != maxPerTier {
		t.Errorf("tier 0 holds %d buffers, want the bound %d", n, maxPerTier)
	}
}

func TestPutNilIsNoOp(t *testing.T) {
	var p Pool
	p.Put(nil)
	for i, free := range p.free {
		if len(free) != 0 {
			t.Errorf("Put(nil) added to tier %d", i)
		}
	}
}

// TestStatsCountHitsAndMisses checks the counters: a lease served from a
// free list is a hit; one that allocates (empty tier or oversized
// request) is a miss; ResetStats zeroes both.
func TestStatsCountHitsAndMisses(t *testing.T) {
	ResetStats()
	var p Pool
	p.Put(p.Get(64))                     // miss: empty tier
	p.Get(64)                            // hit
	p.Get(tierCaps[len(tierCaps)-1] + 1) // miss: oversized
	if h, m := Stats(); h != 1 || m != 2 {
		t.Errorf("Stats() = %d hits, %d misses; want 1, 2", h, m)
	}
	ResetStats()
	if h, m := Stats(); h != 0 || m != 0 {
		t.Errorf("after ResetStats: %d hits, %d misses", h, m)
	}
}
