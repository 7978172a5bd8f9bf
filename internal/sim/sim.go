// Package sim provides a deterministic virtual-time simulation kernel.
//
// All protocol and measurement code in this repository runs on virtual
// time: tasks are ordinary goroutines that cooperate with a World through
// blocking primitives (Sleep, Queue.Pop, timers). The kernel runs exactly
// one task at a time and advances the clock only when every task is
// blocked, so a simulated week-long measurement campaign executes in
// milliseconds and is reproducible given a seed.
//
// The execution model is cooperative ("one big lock"): because at most one
// task executes at any instant, tasks may share mutable state without
// additional locking, and event ordering is deterministic (FIFO among
// runnable tasks, then earliest-deadline-first among timers, ties broken
// by creation order).
//
// # Scheduling
//
// The scheduler is a direct-handoff design: when the running task blocks
// or finishes, it selects the next runnable task (or fires the next due
// timer) and wakes it directly over that task's persistent wake channel,
// without a round trip through the host goroutine. The host goroutine
// that called Run participates only twice per run — once to start the
// first task and once to be told the world is quiescent.
//
// AfterCall callbacks are not tasks: the dispatching context runs them
// inline, on whichever goroutine is handing off, and keeps dispatching,
// so a fired AfterCall costs no goroutine switch at all. They must not
// block; a blocking primitive called inside one panics. AfterFunc
// callbacks, which may block, still run as tasks.
//
// The kernel allocates nothing on its steady-state hot paths: tasks are
// pooled worker goroutines with reusable wake channels, timer entries
// come from a free list and live in an index-tracked 4-ary heap, and the
// run queue is a reusable ring buffer. See DESIGN.md ("Scheduler
// internals") for the full model and the determinism argument.
//
// World methods must be called either from tasks (which run one at a
// time) or from the host goroutine while no Run/RunFor is in progress;
// calling them from the host while the world is running is a data race.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

const maxDuration = time.Duration(1<<63 - 1)

// blockOp records why a task is parked, for lazy deadlock labels: the
// label string is only built if Blocked() is called, never on the block
// path itself.
type blockOp uint8

const (
	opNone blockOp = iota
	opSleep
	opQueuePop
	opQueuePopTimeout
	opWaitGroup
)

// task is one schedulable context: a pooled worker goroutine with a
// persistent one-slot wake channel. A token sent on wake hands the CPU
// to the task; the sender must have set w.cur first. Idle workers park
// on the same channel waiting for their next body.
type task struct {
	wake chan struct{}

	// Pending body, set while the task sits on the runq (or is being
	// handed a fired AfterFunc callback). Exactly one of fn and fnArg
	// is set.
	fn    func()
	fnArg func(any)
	arg   any

	// Block diagnostics, valid while parked (op != opNone).
	op     blockOp
	opName string
	opDur  time.Duration

	// Timeout parking (Queue.PopTimeout): the pending deadline entry,
	// and whether the last wake came from it rather than from ready.
	timeout  *timerEntry
	timedOut bool

	// Live-task registry (intrusive doubly-linked list) for Blocked
	// and Shutdown.
	prev, next *task
	idle       bool // parked in the worker pool, not in user code
}

// World is a virtual-time event kernel. Create one with NewWorld, spawn
// the initial task(s) with Go, then call Run from the host goroutine.
type World struct {
	now      time.Duration
	deadline time.Duration // RunFor bound; maxDuration under Run
	seq      uint64        // timer-entry creation order, for tie-breaks

	theap    []*timerEntry // 4-ary min-heap keyed (at, seq), index-tracked
	freeEnt  *timerEntry   // free list of recycled entries
	runq     ring[*task]   // tasks ready to run, FIFO
	idle     []*task       // worker pool (LIFO, so hot workers rerun)
	cur      *task         // the task currently executing
	liveHead *task         // all live workers, for Blocked/Shutdown
	hostWake chan struct{} // quiescence signal to the host goroutine

	rng     *rand.Rand
	killing bool // Shutdown in progress: blocking primitives bail out
	inline  bool // an AfterCall callback is running: blocking panics

	stats Stats
}

// Stats counts what the scheduler did, for tests that pin the cost of a
// protocol exchange in kernel work. The counts are exact and
// deterministic: they depend only on the event sequence, never on the
// host.
type Stats struct {
	// Handoffs counts goroutine handoffs: each time the kernel woke a
	// task over its wake channel (a run-queue pop or a timer wake).
	Handoffs uint64
	// Inline counts AfterCall callbacks run inline by the scheduler.
	Inline uint64
	// TimerWakes counts timers whose firing woke a task: a Sleep or
	// PopTimeout deadline, or an AfterFunc callback's new task.
	TimerWakes uint64
	// Spawns counts tasks started by Go, GoCall and fired AfterFuncs.
	Spawns uint64
}

// Stats returns the scheduler counts accumulated since NewWorld.
func (w *World) Stats() Stats { return w.stats }

// blockInCallback is the panic raised when an AfterCall callback calls
// a blocking primitive: the callback runs inline in the scheduler, on
// another task's goroutine, so there is no task of its own to park.
const blockInCallback = "sim: blocking call inside an AfterCall callback (AfterCall runs inline in the scheduler and must not block; use AfterFunc or Go for work that waits)"

// blocker returns the task about to park, panicking if the caller is an
// inline AfterCall callback rather than a task. Every blocking primitive
// calls it before touching any state.
func (w *World) blocker() *task {
	if w.inline {
		panic(blockInCallback)
	}
	return w.cur
}

// NewWorld returns a World whose random source is seeded with seed.
func NewWorld(seed int64) *World {
	return &World{
		rng:      rand.New(rand.NewSource(seed)),
		deadline: maxDuration,
		hostWake: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time, measured from the World's epoch.
// It must be called from a task or while the world is idle.
func (w *World) Now() time.Duration { return w.now }

// Rand returns the World's deterministic random source. It must only be
// used from tasks (which run one at a time), never from the host goroutine
// while Run is in progress.
func (w *World) Rand() *rand.Rand { return w.rng }

// --- Worker pool ---

func (w *World) addLive(t *task) {
	t.next = w.liveHead
	if w.liveHead != nil {
		w.liveHead.prev = t
	}
	w.liveHead = t
}

func (w *World) removeLive(t *task) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.liveHead = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
}

// getWorker returns an idle worker, spawning a new goroutine only when
// the pool is empty. Steady-state task churn therefore reuses both the
// task struct and its goroutine.
func (w *World) getWorker() *task {
	if n := len(w.idle); n > 0 {
		t := w.idle[n-1]
		w.idle[n-1] = nil
		w.idle = w.idle[:n-1]
		t.idle = false
		return t
	}
	t := &task{wake: make(chan struct{}, 1)}
	w.addLive(t)
	go w.workerLoop(t)
	return t
}

func (w *World) workerLoop(t *task) {
	defer w.workerExit(t) // reached only via Shutdown (return or Goexit)
	for {
		<-t.wake
		if w.killing {
			return
		}
		if fn := t.fn; fn != nil {
			t.fn = nil
			fn()
		} else {
			fn, arg := t.fnArg, t.arg
			t.fnArg, t.arg = nil, nil
			fn(arg)
		}
		t.idle = true
		w.idle = append(w.idle, t)
		w.handoff()
	}
}

func (w *World) workerExit(t *task) {
	w.removeLive(t)
	w.hostWake <- struct{}{}
}

// Go spawns fn as a new task. It may be called from the host goroutine
// before Run, or from any running task. The task starts in FIFO order
// behind already-runnable tasks.
//
//simlint:hotpath
func (w *World) Go(fn func()) {
	w.stats.Spawns++
	t := w.getWorker()
	t.fn = fn
	w.runq.push(t)
}

// GoCall is Go for a pre-bound callback: it spawns fn(arg) as a new task
// without forcing the caller to allocate a fresh closure per spawn. fn is
// typically a long-lived adapter and arg a pooled object.
//
//simlint:hotpath
func (w *World) GoCall(fn func(any), arg any) {
	w.stats.Spawns++
	t := w.getWorker()
	t.fnArg, t.arg = fn, arg
	w.runq.push(t)
}

// --- Scheduling core ---

// dispatch hands the CPU to the next work item: the oldest runnable
// task, else the earliest pending timer (advancing the clock). A fired
// AfterCall callback is not a work item of its own: dispatch runs it
// inline, on the calling goroutine, and goes on dispatching. dispatch
// returns false when the world is quiescent or the next timer lies
// beyond the RunFor deadline (in which case the clock is capped at the
// deadline). After a successful dispatch the caller must not touch
// kernel state: the woken task owns it.
//
//simlint:hotpath
func (w *World) dispatch() bool {
	for {
		if t, ok := w.runq.pop(); ok {
			w.wake(t)
			return true
		}
		if len(w.theap) == 0 {
			return false
		}
		e := w.theap[0]
		if e.at > w.deadline {
			w.now = w.deadline
			return false
		}
		w.heapRemove(e)
		if e.at > w.now {
			w.now = e.at
		}
		if fn := e.fnArg; fn != nil {
			arg := e.arg
			w.putEntry(e)
			w.stats.Inline++
			w.inline = true
			fn(arg)
			w.inline = false
			continue
		}
		t := e.task
		if t != nil {
			if t.timeout == e {
				t.timeout = nil
				t.timedOut = true
			}
		} else {
			w.stats.Spawns++
			t = w.getWorker()
			t.fn = e.fn
		}
		w.putEntry(e)
		w.stats.TimerWakes++
		w.wake(t)
		return true
	}
}

// wake hands the CPU to t.
//
//simlint:hotpath
func (w *World) wake(t *task) {
	w.stats.Handoffs++
	w.cur = t
	t.wake <- struct{}{}
}

// handoff cedes the CPU: dispatch the next item, or tell the host the
// world is quiescent.
//
//simlint:hotpath
func (w *World) handoff() {
	if !w.dispatch() {
		w.hostWake <- struct{}{}
	}
}

// park blocks the current task until woken. The caller must have
// arranged a wake: a timer entry bound to the task, or membership in a
// waiter list whose owner will call ready.
func (w *World) park() {
	t := w.cur
	w.handoff()
	<-t.wake
	if w.killing {
		runtime.Goexit() // Shutdown: unwind (running defers) and exit
	}
}

// ready marks t runnable. Safe to call from a running task or a timer
// callback; the kernel hands execution over once the current task blocks.
func (w *World) ready(t *task) {
	if w.killing {
		return
	}
	w.runq.push(t)
}

// parkTimeout parks the current task until readied or until the absolute
// virtual-time deadline, whichever first. It reports whether the wake
// was the deadline. The deadline timer is recycled on either path.
func (w *World) parkTimeout(deadline time.Duration) bool {
	t := w.cur
	e := w.newEntry(deadline)
	e.task = t
	t.timeout = e
	t.timedOut = false
	w.heapPush(e)
	w.park()
	if t.timedOut {
		t.timedOut = false
		return true
	}
	if t.timeout != nil { // readied: cancel the pending deadline timer
		w.heapRemove(t.timeout)
		w.putEntry(t.timeout)
		t.timeout = nil
	}
	return false
}

// Sleep blocks the calling task for d of virtual time. Non-positive
// durations yield the processor to other runnable tasks at the same
// instant.
func (w *World) Sleep(d time.Duration) {
	if w.killing {
		return
	}
	if d < 0 {
		d = 0
	}
	t := w.blocker()
	e := w.newEntry(w.now + d)
	e.task = t
	w.heapPush(e)
	t.op, t.opDur = opSleep, d
	w.park()
	t.op = opNone
}

// Yield lets other runnable tasks execute before continuing.
func (w *World) Yield() { w.Sleep(0) }

// AfterFunc schedules fn to run at Now()+d on the kernel, as a task of
// its own. fn must not block forever; it may use World primitives.
//
//simlint:hotpath
func (w *World) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	e := w.newEntry(w.now + d)
	e.fn = fn
	w.heapPush(e)
	return Timer{e: e, gen: e.gen}
}

// AfterCall schedules fn(arg) to run at Now()+d inline in the scheduler:
// the goroutine that dispatches the timer calls fn(arg) itself and then
// goes on dispatching, so no task is started and no goroutine is woken.
// fn must not block — Sleep, Queue.Pop, PopTimeout, Future.Wait and
// WaitGroup.Wait panic inside it — but it may spawn tasks, wake
// waiters and arm timers. A pre-bound fn (a long-lived adapter) and a
// pointer-shaped arg (a pooled object) make the timer allocation-free.
//
//simlint:hotpath
func (w *World) AfterCall(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	e := w.newEntry(w.now + d)
	e.fnArg, e.arg = fn, arg
	w.heapPush(e)
	return Timer{e: e, gen: e.gen}
}

// Run drives the simulation until quiescence: no runnable tasks and no
// pending timers. Tasks blocked forever (e.g. servers waiting for
// requests) do not prevent Run from returning. Run must be called from
// the host goroutine, not from a task. It returns the final virtual time.
func (w *World) Run() time.Duration { return w.runScheduler(maxDuration) }

// RunFor drives the simulation like Run but stops once virtual time would
// exceed the deadline now+d; timers beyond the deadline are left pending.
func (w *World) RunFor(d time.Duration) time.Duration {
	return w.runScheduler(w.now + d)
}

func (w *World) runScheduler(deadline time.Duration) time.Duration {
	w.deadline = deadline
	if w.dispatch() {
		<-w.hostWake
	}
	return w.now
}

// Shutdown reaps every live task goroutine, including tasks blocked
// forever and idle pooled workers. It must only be called from the host
// goroutine after Run has returned, and the World must not be used
// afterwards. Parked tasks unwind via runtime.Goexit, so their deferred
// calls run; during the unwind all blocking primitives return
// immediately (Pop reports a closed queue, Sleep is a no-op).
//
// Worlds that skip Shutdown keep their parked goroutines alive for the
// life of the process — the Go runtime never collects a blocked
// goroutine — which both leaks their stacks and adds them to every GC
// mark phase. Campaign drivers that create a World per shard call this
// as soon as the shard's Run returns.
func (w *World) Shutdown() {
	if w.killing {
		return
	}
	w.killing = true
	for w.liveHead != nil {
		t := w.liveHead
		w.cur = t
		t.wake <- struct{}{}
		<-w.hostWake // its workerExit confirms the goroutine is gone
	}
	w.theap = nil
	w.freeEnt = nil
	w.runq = ring[*task]{}
	w.idle = nil
	w.cur = nil
}

// Blocked returns debug labels of all currently blocked tasks. Intended
// for tests and deadlock diagnostics. Labels are formatted lazily here,
// never on the block path.
func (w *World) Blocked() []string {
	var out []string
	for t := w.liveHead; t != nil; t = t.next {
		switch t.op {
		case opSleep:
			out = append(out, fmt.Sprintf("sleep(%v)", t.opDur))
		case opQueuePop:
			out = append(out, "queue.Pop("+t.opName+")")
		case opQueuePopTimeout:
			out = append(out, "queue.PopTimeout("+t.opName+")")
		case opWaitGroup:
			out = append(out, "waitgroup")
		}
	}
	return out
}
