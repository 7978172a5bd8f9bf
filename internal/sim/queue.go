package sim

import "time"

// Queue is an unbounded FIFO channel analogue that cooperates with the
// virtual clock: Pop blocks the calling task on the kernel rather than on
// the Go scheduler. Queues are the only way tasks should exchange data
// when one side may need to wait. Items live in a reusable ring buffer
// and waiting tasks park on their own persistent wake channels, so
// steady-state push/pop traffic allocates nothing.
type Queue[T any] struct {
	w       *World
	items   ring[T]
	waiters []*task
	closed  bool
	name    string
}

// NewQueue creates an empty queue. name is used in deadlock diagnostics.
func NewQueue[T any](w *World, name string) *Queue[T] {
	return &Queue[T]{w: w, name: name}
}

// Push appends v and wakes one waiting Pop, if any. Push never blocks.
// Pushing to a closed queue is a no-op.
func (q *Queue[T]) Push(v T) {
	if q.closed {
		return
	}
	q.items.push(v)
	q.wakeOne()
}

func (q *Queue[T]) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	t := q.waiters[0]
	q.dropWaiter(0)
	q.w.ready(t)
}

// dropWaiter removes q.waiters[i], shifting in place so the backing
// array keeps being reused.
func (q *Queue[T]) dropWaiter(i int) {
	last := len(q.waiters) - 1
	copy(q.waiters[i:], q.waiters[i+1:])
	q.waiters[last] = nil
	q.waiters = q.waiters[:last]
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Pop removes and returns the oldest item, blocking until one is
// available. ok is false if the queue was closed and drained.
func (q *Queue[T]) Pop() (v T, ok bool) {
	for {
		if v, ok = q.items.pop(); ok {
			return v, true
		}
		if q.closed || q.w.killing {
			return v, false
		}
		t := q.w.cur
		t.op, t.opName = opQueuePop, q.name
		q.waiters = append(q.waiters, t)
		q.w.park()
		t.op = opNone
	}
}

// PopTimeout is Pop with a virtual-time deadline. ok is false on timeout
// or close.
func (q *Queue[T]) PopTimeout(d time.Duration) (v T, ok bool) {
	if v, ok = q.items.pop(); ok {
		return v, true
	}
	if q.closed || q.w.killing {
		return v, false
	}
	deadline := q.w.now + d
	for {
		t := q.w.cur
		t.op, t.opName = opQueuePopTimeout, q.name
		q.waiters = append(q.waiters, t)
		timedOut := q.w.parkTimeout(deadline)
		t.op = opNone
		if timedOut {
			// The deadline woke us directly; leave the waiter list.
			for i, c := range q.waiters {
				if c == t {
					q.dropWaiter(i)
					break
				}
			}
		}
		if v, ok = q.items.pop(); ok {
			return v, true
		}
		if q.closed || timedOut {
			return v, false
		}
		// Spurious wake (another popper beat us); retry until deadline.
		if q.w.now >= deadline {
			return v, false
		}
	}
}

// Close marks the queue closed and wakes all waiters. Buffered items can
// still be drained with Pop.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for i, t := range q.waiters {
		q.w.ready(t)
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
}

// Future is a one-shot value handed from one task to another.
type Future[T any] struct {
	q *Queue[T]
}

// NewFuture creates an unresolved future.
func NewFuture[T any](w *World, name string) *Future[T] {
	return &Future[T]{q: NewQueue[T](w, "future:"+name)}
}

// Resolve sets the value. Resolving twice is a no-op for waiters that
// already consumed the first value.
func (f *Future[T]) Resolve(v T) { f.q.Push(v); f.q.Close() }

// Wait blocks until the future is resolved. ok is false if the future was
// abandoned (resolved never, queue closed).
func (f *Future[T]) Wait() (T, bool) { return f.q.Pop() }

// WaitTimeout is Wait with a virtual-time deadline.
func (f *Future[T]) WaitTimeout(d time.Duration) (T, bool) { return f.q.PopTimeout(d) }

// Fail abandons the future, unblocking waiters with ok=false.
func (f *Future[T]) Fail() { f.q.Close() }

// WaitGroup tracks a set of concurrent tasks on the virtual clock.
type WaitGroup struct {
	w     *World
	count int
	done  []*task
}

// NewWaitGroup returns a WaitGroup bound to w.
func NewWaitGroup(w *World) *WaitGroup { return &WaitGroup{w: w} }

// Add increments the counter by n.
func (g *WaitGroup) Add(n int) { g.count += n }

// Done decrements the counter, waking waiters when it reaches zero.
func (g *WaitGroup) Done() {
	g.count--
	if g.count <= 0 {
		for i, t := range g.done {
			g.w.ready(t)
			g.done[i] = nil
		}
		g.done = g.done[:0]
	}
}

// Wait blocks until the counter reaches zero.
func (g *WaitGroup) Wait() {
	for g.count > 0 {
		if g.w.killing {
			return
		}
		t := g.w.cur
		t.op = opWaitGroup
		g.done = append(g.done, t)
		g.w.park()
		t.op = opNone
	}
}
