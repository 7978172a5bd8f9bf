// Package cache implements the TTL-aware DNS answer caches of the
// testbed: the per-resolver shared cache that collapses upstream
// recursion into a cache hit (the effect the paper credits for most of
// the resolution-time spread between cached and uncached queries), and
// the optional client-side stub cache a local proxy can keep so
// repeated names never leave the vantage host.
//
// Caches live on simulated virtual time: expiry compares the entry's
// absolute expiry instant against the owning World's clock, so cache
// behaviour is deterministic — two runs (or two shard partitions) that
// issue the same query sequence at the same virtual times observe the
// same hits, misses, expirations and evictions. Eviction is LRU over a
// deterministic access order, so a bounded cache stays deterministic
// too. A Cache belongs to one World/shard and must not be shared across
// concurrently running Worlds; sharded campaigns give each shard its
// own caches and merge the observed statistics in shard order.
package cache

import (
	"container/list"
	"net/netip"
	"time"

	"repro/internal/dnsmsg"
)

// Key identifies a cached answer: the paper's resolvers cache per
// (name, qtype).
type Key struct {
	Name string
	Type dnsmsg.Type
}

// Entry is one cached answer.
type Entry struct {
	Addr netip.Addr
	// TTL is the answer's original time-to-live at insertion.
	TTL time.Duration
	// Expires is the absolute virtual-time instant the entry dies.
	Expires time.Duration
}

// Remaining returns the entry's remaining lifetime at virtual time now
// (negative once expired).
func (e Entry) Remaining(now time.Duration) time.Duration { return e.Expires - now }

// Stats counts cache behaviour for the evaluation.
type Stats struct {
	// Hits and Misses count Lookup outcomes; an expired entry counts as
	// a miss (and, once reaped, an Expiration).
	Hits, Misses int
	// Expirations counts entries reaped because they were found dead.
	// Without a stale ceiling an entry is reaped by the first Lookup
	// that finds it expired; with one, only once it ages past the
	// ceiling.
	Expirations int
	// Evictions counts LRU evictions under a capacity bound.
	Evictions int
	// StaleHits counts LookupStale answers served past expiry (RFC 8767
	// serve-stale).
	StaleHits int
}

// HitRatio returns Hits/(Hits+Misses), 0 before any lookup.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Merge adds o's counters into s (for gathering per-shard cache stats).
func (s *Stats) Merge(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Expirations += o.Expirations
	s.Evictions += o.Evictions
	s.StaleHits += o.StaleHits
}

type node struct {
	key Key
	e   Entry
}

// Cache is a TTL-aware answer cache with an optional LRU capacity
// bound. The zero value is not usable; construct with New.
type Cache struct {
	now      func() time.Duration
	capacity int
	stale    time.Duration // serve-stale ceiling past expiry; 0 = off
	entries  map[Key]*list.Element
	lru      *list.List // front = most recently used
	stats    Stats
}

// New creates a cache on the given virtual clock. capacity bounds the
// entry count (LRU eviction); 0 means unbounded.
func New(now func() time.Duration, capacity int) *Cache {
	return &Cache{
		now:      now,
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
	}
}

// SetStaleCeiling enables RFC 8767 serve-stale: expired entries are
// retained (and LookupStale can answer from them) until they age past
// Expires+d. A zero or negative d restores strict expiry, where the
// first Lookup that finds an entry dead reaps it.
func (c *Cache) SetStaleCeiling(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.stale = d
}

// Len returns the number of live-or-expired entries currently held
// (expired entries are reaped lazily by Lookup).
func (c *Cache) Len() int { return c.lru.Len() }

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// Lookup returns the entry for k if present and alive, updating hit or
// miss counters and the LRU order.
func (c *Cache) Lookup(k Key) (Entry, bool) {
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return Entry{}, false
	}
	n := el.Value.(*node)
	if now := c.now(); n.e.Expires <= now {
		if c.stale > 0 && now < n.e.Expires+c.stale {
			// Dead for fresh lookups but retained for serve-stale: a
			// miss, without the reap (LookupStale may still answer).
			c.stats.Misses++
			return Entry{}, false
		}
		c.reap(el, k)
		c.stats.Misses++
		return Entry{}, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return n.e, true
}

// LookupStale returns the entry for k if it is fresh or within the
// serve-stale ceiling of its expiry — the RFC 8767 path a proxy takes
// when the upstream is unreachable. A stale answer counts as a StaleHit
// (a fresh one as a plain Hit) and refreshes the LRU position either
// way; an entry past the ceiling is reaped.
func (c *Cache) LookupStale(k Key) (Entry, bool) {
	el, ok := c.entries[k]
	if !ok {
		return Entry{}, false
	}
	n := el.Value.(*node)
	now := c.now()
	if n.e.Expires > now {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return n.e, true
	}
	if c.stale <= 0 || now >= n.e.Expires+c.stale {
		c.reap(el, k)
		return Entry{}, false
	}
	c.lru.MoveToFront(el)
	c.stats.StaleHits++
	return n.e, true
}

// reap removes a dead entry and counts the expiration.
func (c *Cache) reap(el *list.Element, k Key) {
	c.lru.Remove(el)
	delete(c.entries, k)
	c.stats.Expirations++
}

// Put inserts or refreshes the answer for k and returns the stored
// entry. A non-positive ttl stores nothing (the answer is uncacheable)
// and returns a zero-lifetime entry.
func (c *Cache) Put(k Key, addr netip.Addr, ttl time.Duration) Entry {
	now := c.now()
	e := Entry{Addr: addr, TTL: ttl, Expires: now + ttl}
	if ttl <= 0 {
		return Entry{Addr: addr, Expires: now}
	}
	if el, ok := c.entries[k]; ok {
		el.Value.(*node).e = e
		c.lru.MoveToFront(el)
		return e
	}
	c.entries[k] = c.lru.PushFront(&node{key: k, e: e})
	if c.capacity > 0 && c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*node).key)
		c.stats.Evictions++
	}
	return e
}

// Flush drops every entry, keeping the accumulated statistics (used
// between measurement rounds and by the uncached-baseline ablation).
func (c *Cache) Flush() {
	c.entries = make(map[Key]*list.Element)
	c.lru = list.New()
}

// TTLSeconds converts a remaining lifetime to the DNS TTL field,
// rounding up so a just-inserted answer never advertises TTL 0. Every
// cache layer (resolver answers, stub-cache replies) uses this one
// rule, so advertised TTLs stay consistent across layers.
func TTLSeconds(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	return uint32((d + time.Second - 1) / time.Second)
}

// AnswerQuery builds the cached response for q (an A-record reply with
// the entry's remaining TTL), or nil when the cache cannot answer. This
// is the stub-cache fast path: a non-nil reply short-circuits the
// upstream transport entirely.
func (c *Cache) AnswerQuery(q *dnsmsg.Message) *dnsmsg.Message {
	addr, ttl, ok := c.AnswerFor(q)
	if !ok {
		return nil
	}
	resp := dnsmsg.Reply(*q)
	resp.AnswerA(addr, ttl)
	return &resp
}

// AnswerFor looks up what AnswerQuery would answer for q: the cached
// address for its first question and the TTL to advertise. Only A
// questions can hit. Callers that encode the reply themselves
// (dnsmsg.Message.AppendReplyA) use it to answer without building one.
func (c *Cache) AnswerFor(q *dnsmsg.Message) (addr netip.Addr, ttl uint32, ok bool) {
	if len(q.Questions) == 0 {
		return netip.Addr{}, 0, false
	}
	qu := q.Questions[0]
	if qu.Type != dnsmsg.TypeA {
		return netip.Addr{}, 0, false
	}
	ent, ok := c.Lookup(Key{Name: qu.Name, Type: qu.Type})
	if !ok {
		return netip.Addr{}, 0, false
	}
	return ent.Addr, TTLSeconds(ent.Remaining(c.now())), true
}

// StaleAdvertTTL is the TTL advertised on answers served past their
// expiry, per RFC 8767 §4's recommendation to cap stale TTLs at 30
// seconds so downstream caches re-ask promptly.
const StaleAdvertTTL = 30 * time.Second

// StoreResponse caches the first A answer of an upstream response,
// honouring its TTL. Non-success responses and answerless replies are
// not cached.
func (c *Cache) StoreResponse(resp *dnsmsg.Message) {
	if resp == nil || resp.RCode != dnsmsg.RCodeSuccess {
		return
	}
	for _, a := range resp.Answers {
		if a.Type == dnsmsg.TypeA && a.Addr.IsValid() {
			c.Put(Key{Name: a.Name, Type: a.Type}, a.Addr, time.Duration(a.TTL)*time.Second)
			return
		}
	}
}
