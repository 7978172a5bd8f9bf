package cache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dnsmsg"
)

func key(i int) Key {
	return Key{Name: fmt.Sprintf("n%d.example", i), Type: dnsmsg.TypeA}
}

// TestExpiryExactlyAtBoundary pins the expiry comparison: an entry is
// dead at the instant now == Expires (Expires <= now), not one tick
// later. The campaign layers lean on this — a stub entry whose TTL
// rounds up expires exactly one virtual second past the resolver's, so
// an off-by-one here would flip prefetch re-arm timing everywhere.
func TestExpiryExactlyAtBoundary(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	k := key(0)
	c.Put(k, addr, 10*time.Second)
	cl.t = 10*time.Second - time.Nanosecond
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("entry dead one nanosecond before its expiry instant")
	}
	cl.t = 10 * time.Second
	if _, ok := c.Lookup(k); ok {
		t.Fatal("entry alive at its expiry instant")
	}
	if s := c.Stats(); s.Expirations != 1 {
		t.Fatalf("boundary miss did not reap: %+v", s)
	}
}

// TestCapacityZeroUnbounded checks that capacity 0 means unbounded, not
// "evict everything".
func TestCapacityZeroUnbounded(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	for i := 0; i < 1000; i++ {
		c.Put(key(i), addr, time.Hour)
	}
	if c.Len() != 1000 {
		t.Fatalf("unbounded cache holds %d of 1000 entries", c.Len())
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", s)
	}
}

// TestCapacityOne checks the degenerate LRU: a one-slot cache holds
// exactly the last-inserted entry and evicts on every new key.
func TestCapacityOne(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 1)
	c.Put(key(0), addr, time.Hour)
	c.Put(key(1), addr, time.Hour)
	if _, ok := c.Lookup(key(0)); ok {
		t.Fatal("evicted entry still answered")
	}
	if _, ok := c.Lookup(key(1)); !ok {
		t.Fatal("one-slot cache lost its only entry")
	}
	// Refreshing the resident key must not count as an eviction.
	c.Put(key(1), addr, time.Hour)
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("want exactly 1 eviction, got %+v", s)
	}
	if c.Len() != 1 {
		t.Fatalf("one-slot cache holds %d entries", c.Len())
	}
}

// TestLRUOrderSurvivesStatsMerge checks that reading and merging Stats
// is a pure observation: the LRU order (and thus the next eviction
// victim) is identical whether or not stats were harvested mid-stream.
// Sharded campaigns harvest counters between rounds, so an accidental
// touch here would change eviction behaviour with observation.
func TestLRUOrderSurvivesStatsMerge(t *testing.T) {
	run := func(harvest bool) []bool {
		cl := &clock{}
		c := New(cl.now, 3)
		for i := 0; i < 3; i++ {
			c.Put(key(i), addr, time.Hour)
		}
		c.Lookup(key(0)) // order (MRU first): 0, 2, 1
		if harvest {
			var agg Stats
			agg.Merge(c.Stats())
			agg.Merge(c.Stats())
			if agg.Hits != 2*c.Stats().Hits {
				t.Fatal("Merge did not add counters")
			}
		}
		c.Put(key(3), addr, time.Hour) // must evict 1, the LRU tail
		var alive []bool
		for i := 0; i < 4; i++ {
			_, ok := c.Lookup(key(i))
			alive = append(alive, ok)
		}
		return alive
	}
	plain, harvested := run(false), run(true)
	for i := range plain {
		if plain[i] != harvested[i] {
			t.Fatalf("stats harvest changed eviction: %v vs %v", plain, harvested)
		}
	}
	if plain[1] {
		t.Fatalf("LRU tail survived the eviction: %v", plain)
	}
	if !plain[0] || !plain[2] || !plain[3] {
		t.Fatalf("wrong eviction victim: %v", plain)
	}
}

// TestStaleCeilingInteraction walks one entry through the three
// serve-stale lifetimes: fresh (both lookups hit), expired-but-stale
// (Lookup misses without reaping, LookupStale answers), and past the
// ceiling (both miss, entry reaped once).
func TestStaleCeilingInteraction(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	c.SetStaleCeiling(30 * time.Second)
	k := key(0)
	c.Put(k, addr, 10*time.Second)

	cl.t = 5 * time.Second
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("fresh entry missed")
	}
	if _, ok := c.LookupStale(k); !ok {
		t.Fatal("fresh entry missed via LookupStale")
	}

	cl.t = 15 * time.Second // expired 5s ago, within the 30s ceiling
	if _, ok := c.Lookup(k); ok {
		t.Fatal("expired entry served as fresh")
	}
	if c.Len() != 1 {
		t.Fatal("stale-eligible entry was reaped by Lookup")
	}
	ent, ok := c.LookupStale(k)
	if !ok {
		t.Fatal("stale entry not served within the ceiling")
	}
	if rem := ent.Remaining(cl.t); rem != -5*time.Second {
		t.Fatalf("stale remaining lifetime %v, want -5s", rem)
	}

	cl.t = 40 * time.Second // expiry(10s) + ceiling(30s): just past it
	if _, ok := c.LookupStale(k); ok {
		t.Fatal("entry served at the stale ceiling instant")
	}
	if c.Len() != 0 {
		t.Fatal("entry past the ceiling not reaped")
	}
	s := c.Stats()
	if s.StaleHits != 1 || s.Expirations != 1 {
		t.Fatalf("want 1 stale hit and 1 expiration: %+v", s)
	}

	// Restoring strict expiry reaps on the first expired Lookup again.
	c.SetStaleCeiling(0)
	c.Put(k, addr, time.Second)
	cl.t += 2 * time.Second
	if _, ok := c.Lookup(k); ok || c.Len() != 0 {
		t.Fatal("strict expiry not restored after disabling the ceiling")
	}
}

// TestHotnessTopKSurvivesChurn checks the space-saving property the
// prefetcher depends on: a key whose true frequency exceeds the N/k
// error bound (N touches over k slots) stays tracked with at least its
// true count while one-off keys churn through a full table. Here the
// hot key holds 50 of N=250 touches against 250/8 ≈ 31.
func TestHotnessTopKSurvivesChurn(t *testing.T) {
	h := NewHotness(8)
	hot := key(0)
	for i := 0; i < 50; i++ {
		h.Touch(hot)
	}
	for i := 1; i <= 200; i++ {
		h.Touch(key(i))
	}
	if h.Len() != 8 {
		t.Fatalf("table holds %d slots, want capacity 8", h.Len())
	}
	if got := h.Count(hot); got < 50 {
		t.Fatalf("hot key count %d dropped below its true 50 accesses", got)
	}
	if !h.Hot(hot, 50) {
		t.Fatal("hot key not reported hot")
	}
	// The overestimate can promote, never hide: any tracked count is an
	// upper bound, and untracked keys report 0.
	if h.Count(key(9999)) != 0 {
		t.Fatal("untracked key has nonzero count")
	}
}

// TestHotnessDeterministicVictim checks the victim scan is first-minimum
// and content-deterministic: two trackers fed the same sequence end up
// with identical tables.
func TestHotnessDeterministicVictim(t *testing.T) {
	feed := func() *Hotness {
		h := NewHotness(4)
		seq := []int{1, 2, 3, 4, 2, 3, 4, 5, 6, 1, 7, 2, 8}
		for _, i := range seq {
			h.Touch(key(i))
		}
		return h
	}
	a, b := feed(), feed()
	if a.Len() != b.Len() {
		t.Fatalf("table sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.slots {
		if a.slots[i] != b.slots[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, a.slots[i], b.slots[i])
		}
	}
	// Default capacity applies for non-positive values.
	if NewHotness(0).capacity != DefaultHotnessCapacity || NewHotness(-3).capacity != DefaultHotnessCapacity {
		t.Fatal("default capacity not applied")
	}
}
