package netapi

import (
	"sync"
	"time"
)

// Future is a one-shot value handed from one task to another, built on
// the backend's Event primitive. It mirrors sim.Future's contract: on
// the sim backend Resolve/Wait compile down to exactly the same kernel
// operations (one queue push waking one waiter), so replacing
// sim.Future with netapi.Future changes no scheduling order.
type Future[T any] struct {
	ev  Event
	val T
}

// NewFuture creates an unresolved future. name appears in deadlock
// diagnostics on the sim backend.
func NewFuture[T any](rt Runtime, name string) *Future[T] {
	return &Future[T]{ev: rt.NewEvent(name)}
}

// Resolve sets the value and wakes waiters. The value is written before
// the completion is published, so waiters on any backend observe it.
func (f *Future[T]) Resolve(v T) {
	f.val = v
	f.ev.Complete(true)
}

// Fail abandons the future, unblocking waiters with ok=false.
func (f *Future[T]) Fail() { f.ev.Complete(false) }

// Wait blocks until the future is resolved or failed.
func (f *Future[T]) Wait() (T, bool) {
	if !f.ev.Wait() {
		var zero T
		return zero, false
	}
	return f.val, true
}

// WaitTimeout is Wait with a deadline; ok is false on timeout or
// failure.
func (f *Future[T]) WaitTimeout(d time.Duration) (T, bool) {
	if !f.ev.WaitTimeout(d) {
		var zero T
		return zero, false
	}
	return f.val, true
}

// Spawner starts fn(v) as a task of its own for each Go(v), without
// allocating in steady state: v travels in a box leased from the
// spawner's free list, and every spawn passes the same top-level
// adapter to Runtime.GoCall, so there is neither a closure nor a fresh
// carrier per task. The free list is guarded by the backend lock (free
// on simnet, a mutex on livenet), so Go may be called from any task.
type Spawner[T any] struct {
	rt   Runtime
	fn   func(T)
	mu   sync.Locker
	free []*box[T]
}

type box[T any] struct {
	s *Spawner[T]
	v T
}

// NewSpawner creates a spawner that runs fn on rt.
func NewSpawner[T any](rt Runtime, fn func(T)) *Spawner[T] {
	return &Spawner[T]{rt: rt, fn: fn, mu: rt.NewLock()}
}

// Go starts fn(v) as a new task.
func (s *Spawner[T]) Go(v T) {
	s.mu.Lock()
	var b *box[T]
	if n := len(s.free); n > 0 {
		b = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		b = &box[T]{s: s}
	}
	s.mu.Unlock()
	b.v = v
	s.rt.GoCall(spawnStart, b)
}

// spawnStart is the adapter every spawn passes to GoCall. It is not
// generic on purpose: a generic func value taken inside a generic
// method allocates its dictionary closure each time.
//
//simlint:hotpath
func spawnStart(a any) { a.(interface{ start() }).start() }

// start returns the box to the free list before fn runs, so fn may
// itself call Go.
//
//simlint:hotpath
func (b *box[T]) start() {
	s, v := b.s, b.v
	var zero T
	b.v = zero
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
	s.fn(v)
}
