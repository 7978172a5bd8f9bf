package sim

// Contract tests for inline AfterCall callbacks: they run inside the
// scheduler on the dispatching goroutine, start no task, refuse to
// block, and keep the (at, seq) firing order shared with AfterFunc and
// Sleep.

import (
	"testing"
	"time"
)

func TestAfterCallSpawnsNoWorker(t *testing.T) {
	w := NewWorld(1)
	fired := 0
	fn := func(any) { fired++ }
	w.AfterCall(time.Second, fn, nil)
	w.AfterCall(2*time.Second, fn, nil)
	w.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if w.liveHead != nil {
		t.Error("AfterCall started a worker goroutine")
	}
	if got, want := w.Stats(), (Stats{Inline: 2}); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}

	// The same two timers as AfterFunc are two tasks, two handoffs.
	w2 := NewWorld(1)
	w2.AfterFunc(time.Second, func() {})
	w2.AfterFunc(2*time.Second, func() {})
	w2.Run()
	if got, want := w2.Stats(), (Stats{Handoffs: 2, TimerWakes: 2, Spawns: 2}); got != want {
		t.Errorf("AfterFunc Stats = %+v, want %+v", got, want)
	}
	w2.Shutdown()
}

// TestBlockingInAfterCallPanics fires each blocking primitive from an
// AfterCall callback. With nothing runnable the host goroutine
// dispatches the timer, so the panic surfaces from Run.
func TestBlockingInAfterCallPanics(t *testing.T) {
	cases := map[string]func(w *World){
		"Sleep": func(w *World) { w.Sleep(time.Second) },
		"Yield": func(w *World) { w.Yield() },
		"Pop":   func(w *World) { NewQueue[int](w, "q").Pop() },
		"PopTimeout": func(w *World) {
			NewQueue[int](w, "q").PopTimeout(time.Second)
		},
		"Future.Wait": func(w *World) { NewFuture[int](w, "f").Wait() },
		"WaitGroup.Wait": func(w *World) {
			g := NewWaitGroup(w)
			g.Add(1)
			g.Wait()
		},
	}
	for name, block := range cases {
		t.Run(name, func(t *testing.T) {
			w := NewWorld(1)
			w.AfterCall(time.Second, func(any) { block(w) }, nil)
			defer func() {
				if r := recover(); r != blockInCallback {
					t.Errorf("recovered %v, want the %q panic", r, blockInCallback)
				}
			}()
			w.Run()
		})
	}
}

// TestAfterCallKeepsCreationOrder: timers of all three kinds due at the
// same instant fire in creation order, and a task an inline callback
// makes runnable runs before the next timer fires.
func TestAfterCallKeepsCreationOrder(t *testing.T) {
	w := NewWorld(1)
	var order []string
	rec := func(s string) { order = append(order, s) }
	call := func(a any) { rec(a.(string)) }
	w.Go(func() {
		w.AfterCall(time.Second, call, "call1")
		w.AfterFunc(time.Second, func() { rec("func") })
		w.AfterCall(time.Second, func(any) {
			rec("call2")
			w.Go(func() { rec("spawned") })
		}, nil)
		w.Sleep(time.Second)
		rec("sleep")
	})
	w.Go(func() { w.AfterCall(time.Second, call, "call3") })
	w.Run()
	want := []string{"call1", "func", "call2", "spawned", "sleep", "call3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	w.Shutdown()
}
