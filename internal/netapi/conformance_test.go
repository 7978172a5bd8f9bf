// Conformance suite: the Runtime contract (timers, events, groups,
// locks) must behave identically on both backends, because the
// protocol clients are written once against the seam. Each case runs
// on simnet inside a virtual-time world and on livenet with real
// goroutines and short wall-clock delays.
package netapi_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netapi"
	"repro/internal/netapi/livenet"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/sim"
)

// onBackends runs fn on a task of each backend. The sim variant owns a
// fresh world and drains it; the live variant runs fn directly.
func onBackends(t *testing.T, fn func(t *testing.T, be netapi.Backend)) {
	t.Run("simnet", func(t *testing.T) {
		w := sim.NewWorld(1)
		n := netem.NewNetwork(w)
		host := n.Host(netip.MustParseAddr("10.9.0.1"))
		be := simnet.New(host, rand.New(rand.NewSource(1)))
		w.Go(func() { fn(t, be) })
		w.Run()
	})
	t.Run("livenet", func(t *testing.T) {
		fn(t, livenet.New(1))
	})
}

func TestTimerCancelBeforeFire(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		mu := be.NewLock()
		fired := false
		tm := be.AfterFunc(50*time.Millisecond, func() {
			mu.Lock()
			fired = true
			mu.Unlock()
		})
		if !tm.Stop() {
			t.Error("Stop before fire = false, want true")
		}
		be.Sleep(80 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		if fired {
			t.Error("stopped timer fired")
		}
	})
}

func TestTimerStopAfterFire(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		done := be.NewEvent("conformance-fire")
		tm := be.AfterFunc(time.Millisecond, func() { done.Complete(true) })
		if !done.Wait() {
			t.Fatal("timer event failed")
		}
		if tm.Stop() {
			t.Error("Stop after fire = true, want false")
		}
	})
}

func TestTimerFireOrder(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		mu := be.NewLock()
		var order []int
		done := be.NewEvent("conformance-order")
		for i, d := range []time.Duration{30, 10, 20} {
			i, d := i, d
			be.AfterFunc(d*time.Millisecond, func() {
				mu.Lock()
				order = append(order, i)
				n := len(order)
				mu.Unlock()
				if n == 3 {
					done.Complete(true)
				}
			})
		}
		done.Wait()
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
			t.Errorf("fire order = %v, want [1 2 0]", order)
		}
	})
}

func TestEventCompleteValue(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		okEv := be.NewEvent("conformance-ok")
		be.Go(func() { okEv.Complete(true) })
		if !okEv.Wait() {
			t.Error("completed-ok event: Wait = false")
		}
		failEv := be.NewEvent("conformance-fail")
		be.Go(func() { failEv.Complete(false) })
		if failEv.Wait() {
			t.Error("failed event: Wait = true")
		}
	})
}

func TestEventDeadlineExceeded(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		ev := be.NewEvent("conformance-deadline")
		start := be.Now()
		if ev.WaitTimeout(30 * time.Millisecond) {
			t.Error("WaitTimeout on pending event = true")
		}
		if el := be.Now() - start; el < 30*time.Millisecond {
			t.Errorf("deadline returned after %v, want >= 30ms", el)
		}
		// A late completion is still observable by later waiters.
		ev.Complete(true)
		if !ev.WaitTimeout(30 * time.Millisecond) {
			t.Error("completed event: WaitTimeout = false")
		}
	})
}

func TestEventCompleteBeforeWait(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		ev := be.NewEvent("conformance-prewait")
		ev.Complete(true)
		if !ev.Wait() {
			t.Error("pre-completed event: Wait = false")
		}
	})
}

func TestGroupWait(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		mu := be.NewLock()
		n := 0
		wg := be.NewGroup()
		wg.Add(3)
		for i := 0; i < 3; i++ {
			be.Go(func() {
				be.Sleep(time.Millisecond)
				mu.Lock()
				n++
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		if n != 3 {
			t.Errorf("after Wait, %d of 3 tasks recorded", n)
		}
	})
}

func TestFutureResolveAndFail(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		f := netapi.NewFuture[int](be, "conformance-future")
		be.Go(func() { f.Resolve(42) })
		if v, ok := f.Wait(); !ok || v != 42 {
			t.Errorf("resolved future = (%v, %v), want (42, true)", v, ok)
		}
		g := netapi.NewFuture[int](be, "conformance-future-fail")
		be.Go(func() { g.Fail() })
		if _, ok := g.Wait(); ok {
			t.Error("failed future: ok = true")
		}
		h := netapi.NewFuture[int](be, "conformance-future-timeout")
		if _, ok := h.WaitTimeout(20 * time.Millisecond); ok {
			t.Error("pending future: WaitTimeout ok = true")
		}
	})
}

func TestMonotonicClock(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		a := be.Now()
		be.Sleep(10 * time.Millisecond)
		if b := be.Now(); b-a < 10*time.Millisecond {
			t.Errorf("Sleep(10ms) advanced clock by %v", b-a)
		}
	})
}

// TestPacketConnHandle: the handler receives datagrams, closed runs
// exactly once after Close, and nothing is delivered after Close. The
// livenet case runs over loopback UDP.
func TestPacketConnHandle(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		rx, err := be.ListenUDP(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := be.DialUDP(8)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		dst := rx.LocalAddr()
		if dst.Addr().IsUnspecified() {
			dst = netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), dst.Port())
		}
		send := func(s string) { tx.Send(dst, append(tx.Pool().Get(len(s)), s...)) }

		mu := be.NewLock()
		var got []string
		closedRuns := 0
		received := be.NewEvent("conformance-handle-recv")
		closed := be.NewEvent("conformance-handle-closed")
		rx.Handle(func(p netapi.Packet) {
			mu.Lock()
			got = append(got, string(p.Payload))
			mu.Unlock()
			rx.Pool().Put(p.Payload)
			received.Complete(true)
		}, func() {
			mu.Lock()
			closedRuns++
			mu.Unlock()
			closed.Complete(true)
		})

		send("hello")
		if !received.WaitTimeout(2 * time.Second) {
			t.Fatal("handler received no datagram")
		}
		rx.Close()
		if !closed.WaitTimeout(2 * time.Second) {
			t.Fatal("closed did not run after Close")
		}
		rx.Close()
		send("after close")
		be.Sleep(50 * time.Millisecond)

		mu.Lock()
		defer mu.Unlock()
		if len(got) != 1 || got[0] != "hello" {
			t.Errorf("handler received %q, want [hello]", got)
		}
		if closedRuns != 1 {
			t.Errorf("closed ran %d times, want 1", closedRuns)
		}
	})
}

// TestSpawner: every Go runs fn exactly once with its own value, also
// when two tasks call Go at once (the livenet case runs under -race).
// On simnet, tasks also start in Go order.
func TestSpawner(t *testing.T) {
	onBackends(t, func(t *testing.T, be netapi.Backend) {
		const per = 100
		mu := be.NewLock()
		var order []int
		seen := map[int]int{}
		wg := be.NewGroup()
		sp := netapi.NewSpawner(be, func(v int) {
			mu.Lock()
			order = append(order, v)
			seen[v]++
			mu.Unlock()
			wg.Done()
		})
		wg.Add(2 * per)
		callers := be.NewGroup()
		callers.Add(2)
		for c := 0; c < 2; c++ {
			base := c * per
			be.Go(func() {
				for i := 0; i < per; i++ {
					sp.Go(base + i)
				}
				callers.Done()
			})
		}
		callers.Wait()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		for v := 0; v < 2*per; v++ {
			if seen[v] != 1 {
				t.Errorf("value %d ran %d times, want 1", v, seen[v])
			}
		}
		if _, sim := be.(*simnet.Backend); !sim {
			return
		}
		for i, v := range order {
			if v != i {
				t.Errorf("start order = %v, want Go order", order)
				break
			}
		}
	})
}

// TestSpawnerSimReuseAndZeroAlloc: a Go from inside fn reuses the box
// its own task just freed, and steady-state spawns allocate nothing.
func TestSpawnerSimReuseAndZeroAlloc(t *testing.T) {
	w := sim.NewWorld(1)
	be := simnet.New(netem.NewNetwork(w).Host(netip.MustParseAddr("10.9.0.1")), rand.New(rand.NewSource(1)))
	wg := be.NewGroup()
	var sp *netapi.Spawner[int]
	var freeInChain []int
	sp = netapi.NewSpawner(be, func(v int) {
		if v > 0 {
			// The box this task came in is already back on the list,
			// so the nested Go takes it instead of allocating one.
			freeInChain = append(freeInChain, netapi.FreeBoxes(sp))
			sp.Go(v - 1)
			return
		}
		wg.Done()
	})
	var allocs float64
	w.Go(func() {
		wg.Add(1)
		sp.Go(3)
		wg.Wait()
		if got := netapi.FreeBoxes(sp); got != 1 {
			t.Errorf("after a chain of nested Go calls, %d free boxes, want 1", got)
		}
		for i, n := range freeInChain {
			if n != 1 {
				t.Errorf("nested Go %d: %d free boxes, want 1 (the box just freed)", i, n)
			}
		}
		burst := func() {
			wg.Add(50)
			for i := 0; i < 50; i++ {
				sp.Go(0)
			}
			wg.Wait()
		}
		burst()
		allocs = testing.AllocsPerRun(10, burst)
	})
	w.Run()
	if allocs != 0 {
		t.Errorf("steady-state spawns allocated %v objects per 50, want 0", allocs)
	}
}
