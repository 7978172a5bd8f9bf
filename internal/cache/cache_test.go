package cache

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsmsg"
)

// clock is a manual virtual clock.
type clock struct{ t time.Duration }

func (c *clock) now() time.Duration { return c.t }

var addr = netip.AddrFrom4([4]byte{198, 18, 0, 1})

func TestLookupHitMissExpiry(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	k := Key{Name: "a.example", Type: dnsmsg.TypeA}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, addr, 60*time.Second)
	ent, ok := c.Lookup(k)
	if !ok || ent.Addr != addr {
		t.Fatalf("miss after Put: %+v %v", ent, ok)
	}
	if got := ent.Remaining(cl.now()); got != 60*time.Second {
		t.Errorf("remaining = %v", got)
	}
	cl.t = 59 * time.Second
	if _, ok := c.Lookup(k); !ok {
		t.Error("expired one second early")
	}
	cl.t = 60 * time.Second
	if _, ok := c.Lookup(k); ok {
		t.Error("hit at expiry instant")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Expirations != 1 {
		t.Errorf("stats = %+v", s)
	}
	if c.Len() != 0 {
		t.Errorf("expired entry not reaped, len=%d", c.Len())
	}
}

func TestLRUCapacityEviction(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 2)
	key := func(i int) Key { return Key{Name: fmt.Sprintf("%d.example", i), Type: dnsmsg.TypeA} }
	c.Put(key(1), addr, time.Hour)
	c.Put(key(2), addr, time.Hour)
	c.Lookup(key(1)) // 1 becomes most recent; 2 is LRU
	c.Put(key(3), addr, time.Hour)
	if _, ok := c.Lookup(key(2)); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Lookup(key(1)); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Lookup(key(3)); !ok {
		t.Error("new entry missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d", ev)
	}
}

func TestPutRefreshAndFlush(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	k := Key{Name: "a.example", Type: dnsmsg.TypeA}
	c.Put(k, addr, 10*time.Second)
	cl.t = 8 * time.Second
	c.Put(k, addr, 10*time.Second) // refresh pushes expiry to t=18s
	cl.t = 15 * time.Second
	if _, ok := c.Lookup(k); !ok {
		t.Error("refreshed entry expired early")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Error("flush left entries")
	}
	if c.Stats().Hits != 1 {
		t.Error("flush dropped stats")
	}
}

func TestZeroTTLNotCached(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	k := Key{Name: "a.example", Type: dnsmsg.TypeA}
	c.Put(k, addr, 0)
	if c.Len() != 0 {
		t.Error("zero-TTL answer cached")
	}
}

func TestAnswerQueryAndStoreResponse(t *testing.T) {
	cl := &clock{}
	c := New(cl.now, 0)
	q := dnsmsg.NewQuery(7, "web.example", dnsmsg.TypeA)
	if _, _, ok := c.AnswerFor(&q); ok {
		t.Fatal("cold cache answered")
	}
	resp := dnsmsg.Reply(q)
	resp.AnswerA(addr, 300)
	c.StoreResponse(&resp)
	cl.t = 100 * time.Second
	q2 := dnsmsg.NewQuery(8, "web.example", dnsmsg.TypeA)
	got, ttl, ok := c.AnswerFor(&q2)
	if !ok {
		t.Fatal("warm cache did not answer")
	}
	if got != addr {
		t.Fatalf("cached address = %v, want %v", got, addr)
	}
	if ttl != 200 {
		t.Errorf("remaining TTL = %d, want 200", ttl)
	}
	// Failed responses must not be cached.
	bad := dnsmsg.Reply(q)
	bad.RCode = dnsmsg.RCodeServFail
	before := c.Len()
	c.StoreResponse(&bad)
	if c.Len() != before {
		t.Error("SERVFAIL cached")
	}
}

func TestHitRatioAndMerge(t *testing.T) {
	a := Stats{Hits: 3, Misses: 1, Expirations: 1}
	b := Stats{Hits: 1, Misses: 3, Evictions: 2}
	a.Merge(b)
	if a.Hits != 4 || a.Misses != 4 || a.Expirations != 1 || a.Evictions != 2 {
		t.Errorf("merge = %+v", a)
	}
	if r := a.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio = %v", r)
	}
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Errorf("empty hit ratio = %v", r)
	}
}
