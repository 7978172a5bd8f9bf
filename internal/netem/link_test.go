package netem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestBandwidthSerializationFIFO checks the bottleneck queue's virtual
// timing: a 1000-byte datagram over a 1 MB/s link with 10ms propagation
// arrives after 11ms, and a second one sent at the same instant queues
// behind it, arriving exactly one serialization time later.
func TestBandwidthSerializationFIFO(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 10 * time.Millisecond, Bandwidth: 1e6})
	srv, _ := b.Listen(ProtoUDP, 53, 0)

	var arrivals []time.Duration
	var payloads []string
	w.Go(func() {
		c := a.Dial(ProtoUDP, 0)
		c.Send(srv.LocalAddr(), []byte(strings.Repeat("a", 1000)))
		c.Send(srv.LocalAddr(), []byte(strings.Repeat("b", 1000)))
	})
	w.Go(func() {
		for i := 0; i < 2; i++ {
			d, ok := srv.Recv()
			if !ok {
				t.Error("socket closed early")
				return
			}
			arrivals = append(arrivals, w.Now())
			payloads = append(payloads, string(d.Payload[:1]))
		}
	})
	w.Run()
	want := []time.Duration{11 * time.Millisecond, 12 * time.Millisecond}
	if !reflect.DeepEqual(arrivals, want) {
		t.Errorf("arrivals = %v, want %v", arrivals, want)
	}
	if !reflect.DeepEqual(payloads, []string{"a", "b"}) {
		t.Errorf("FIFO violated: order %v", payloads)
	}
}

// TestQueueOverflowTailDrop saturates a bottleneck with more bytes than
// its queue holds and checks the excess is tail-dropped and counted.
func TestQueueOverflowTailDrop(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{
		Delay: time.Millisecond, Bandwidth: 1e6, QueueBytes: 3000,
	})
	srv, _ := b.Listen(ProtoUDP, 53, 0)
	const total = 10
	w.Go(func() {
		c := a.Dial(ProtoUDP, 0)
		for i := 0; i < total; i++ {
			c.Send(srv.LocalAddr(), make([]byte, 1000))
		}
	})
	w.Run()
	if srv.RxDatagrams != 3 {
		t.Errorf("delivered %d datagrams through a 3000B queue, want 3", srv.RxDatagrams)
	}
	if n.Drops.Overflow != total-3 {
		t.Errorf("Drops.Overflow = %d, want %d", n.Drops.Overflow, total-3)
	}
	if n.Drops.Loss != 0 {
		t.Errorf("Drops.Loss = %d, want 0 (no loss configured)", n.Drops.Loss)
	}
}

// TestBurstLossIsBursty checks the Gilbert–Elliott chain produces
// correlated loss: with LossBad=1 and mean bad-state dwell of 5
// datagrams, dropped datagrams must come in runs far longer than
// independent loss at the same average rate would produce.
func TestBurstLossIsBursty(t *testing.T) {
	w := sim.NewWorld(11)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{
		Delay: time.Microsecond,
		Burst: BurstLoss{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 1},
	})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	const total = 5000
	received := make([]bool, total)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		for i := 0; i < total; i++ {
			c.Send(srv.LocalAddr(), []byte(fmt.Sprintf("%d", i)))
			w.Sleep(time.Microsecond)
		}
	})
	w.Go(func() {
		for {
			d, ok := srv.Recv()
			if !ok {
				return
			}
			var idx int
			fmt.Sscanf(string(d.Payload), "%d", &idx)
			received[idx] = true
		}
	})
	w.RunFor(time.Second)
	srv.Close()
	w.Run()

	dropped, runs, inRun := 0, 0, false
	for _, ok := range received {
		if !ok {
			dropped++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if dropped == 0 || dropped == total {
		t.Fatalf("dropped %d of %d, want partial loss", dropped, total)
	}
	meanRun := float64(dropped) / float64(runs)
	// Mean bad dwell is 1/0.2 = 5 datagrams; independent loss would give
	// mean runs barely above 1.
	if meanRun < 2.5 {
		t.Errorf("mean loss-run length %.2f (dropped %d in %d runs), want >= 2.5 (bursty)", meanRun, dropped, runs)
	}
}

// TestPathScheduleDegradeRecover drives a path through a
// clean -> blackout -> clean schedule and checks each phase behaves as
// configured at the right virtual times.
func TestPathScheduleDegradeRecover(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	base := PathParams{Delay: 10 * time.Millisecond}
	n.SetPath(a.Addr(), b.Addr(), base)
	n.SetPathSchedule(a.Addr(), b.Addr(), []PathStep{
		{At: 0, Params: base},
		{At: time.Second, Params: PathParams{Delay: 10 * time.Millisecond, Loss: 1}},
		{At: 2 * time.Second, Params: base},
	})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), []byte("clean"))
		w.Sleep(1500 * time.Millisecond)
		c.Send(srv.LocalAddr(), []byte("blackout"))
		w.Sleep(time.Second)
		c.Send(srv.LocalAddr(), []byte("recovered"))
	})
	var got []string
	w.Go(func() {
		for {
			d, ok := srv.Recv()
			if !ok {
				return
			}
			got = append(got, string(d.Payload))
		}
	})
	w.RunFor(5 * time.Second)
	srv.Close()
	w.Run()
	if want := []string{"clean", "recovered"}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v (blackout phase must drop)", got, want)
	}
	if n.Drops.Loss != 1 {
		t.Errorf("Drops.Loss = %d, want 1", n.Drops.Loss)
	}
	if got := n.PathAt(a.Addr(), b.Addr(), 1500*time.Millisecond).Loss; got != 1 {
		t.Errorf("PathAt(1.5s).Loss = %v, want 1", got)
	}
	if got := n.PathAt(a.Addr(), b.Addr(), 2500*time.Millisecond).Loss; got != 0 {
		t.Errorf("PathAt(2.5s).Loss = %v, want 0", got)
	}
}

// TestJitterReorderDeterministic guards the link model against
// wall-clock or map-order leaks: two same-seed runs over a jittery path
// must deliver datagrams in the identical (reordered) order.
func TestJitterReorderDeterministic(t *testing.T) {
	run := func() []string {
		w := sim.NewWorld(42)
		n := NewNetwork(w)
		a := n.Host(addr("10.0.0.1"))
		b := n.Host(addr("10.0.0.2"))
		n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 5 * time.Millisecond, Jitter: 50 * time.Millisecond})
		srv, _ := b.Listen(ProtoUDP, 53, 8)
		var order []string
		w.Go(func() {
			c := a.Dial(ProtoUDP, 8)
			for i := 0; i < 50; i++ {
				c.Send(srv.LocalAddr(), []byte(fmt.Sprintf("%02d", i)))
				w.Sleep(time.Millisecond)
			}
		})
		w.Go(func() {
			for {
				d, ok := srv.Recv()
				if !ok {
					return
				}
				order = append(order, string(d.Payload))
			}
		})
		w.RunFor(time.Second)
		srv.Close()
		w.Run()
		return order
	}
	first := run()
	if len(first) != 50 {
		t.Fatalf("delivered %d of 50", len(first))
	}
	sorted := true
	for i := 1; i < len(first); i++ {
		if first[i] < first[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("jitter produced no reordering; test is vacuous, increase jitter")
	}
	for run2 := 0; run2 < 2; run2++ {
		if got := run(); !reflect.DeepEqual(first, got) {
			t.Fatalf("same-seed runs delivered different orders:\n%v\n%v", first, got)
		}
	}
}

// TestAccessLinkShapesDatagrams checks the per-host access link: extra
// delay and downlink serialization apply to datagrams toward the host,
// and loopback traffic (the local DNS proxy) is exempt.
func TestAccessLinkShapesDatagrams(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 10 * time.Millisecond})
	n.SetPath(b.Addr(), b.Addr(), PathParams{Delay: 50 * time.Microsecond})
	n.SetAccessLink(b.Addr(), AccessProfile{
		Name: "test", Down: 1e6, Up: 1e6, ExtraDelay: 5 * time.Millisecond,
	})
	srv, _ := b.Listen(ProtoUDP, 53, 0)
	loop, _ := b.Listen(ProtoUDP, 54, 0)
	var remoteAt, loopAt time.Duration
	w.Go(func() {
		c := a.Dial(ProtoUDP, 0)
		c.Send(srv.LocalAddr(), make([]byte, 1000))
	})
	w.Go(func() {
		c := b.Dial(ProtoUDP, 0)
		c.Send(loop.LocalAddr(), make([]byte, 1000))
	})
	w.Go(func() {
		if _, ok := srv.Recv(); ok {
			remoteAt = w.Now()
		}
	})
	w.Go(func() {
		if _, ok := loop.Recv(); ok {
			loopAt = w.Now()
		}
	})
	w.Run()
	// 10ms propagation + 1ms serialization at 1 MB/s + 5ms access delay.
	if want := 16 * time.Millisecond; remoteAt != want {
		t.Errorf("remote arrival at %v, want %v", remoteAt, want)
	}
	// Loopback skips the access link entirely.
	if want := 50 * time.Microsecond; loopAt != want {
		t.Errorf("loopback arrival at %v, want %v (access must not apply)", loopAt, want)
	}
}

// TestOccupyDownSharesLink checks that analytic bulk transfers reserve
// the shared downlink: two back-to-back transfers serialize, and a
// datagram sent during the transfer queues behind it.
func TestOccupyDownSharesLink(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	b := n.Host(addr("10.0.0.2"))
	n.SetAccessLink(b.Addr(), AccessProfile{Name: "test", Down: 1e6})

	if got, want := n.OccupyDown(b.Addr(), 1e6), time.Second; got != want {
		t.Errorf("first transfer = %v, want %v", got, want)
	}
	if got, want := n.OccupyDown(b.Addr(), 1e6), 2*time.Second; got != want {
		t.Errorf("second transfer = %v, want %v (queued behind first)", got, want)
	}
	// A host without an access link falls back to the analytic default
	// with no shared state.
	c := n.Host(addr("10.0.0.3"))
	want := time.Duration(1e6 / DefaultDownloadRate * float64(time.Second))
	for i := 0; i < 2; i++ {
		if got := n.OccupyDown(c.Addr(), 1e6); got != want {
			t.Errorf("unshaped transfer %d = %v, want %v", i, got, want)
		}
	}
}

// TestSerializationCountsOverhead checks that the bottlenecks
// serialize the wire size (payload plus the socket's per-datagram
// header overhead), matching the package's byte-accounting convention:
// a 992-byte payload on an overhead-8 socket is 1000 wire bytes, 1ms
// at 1 MB/s.
func TestSerializationCountsOverhead(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 10 * time.Millisecond, Bandwidth: 1e6})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	var at time.Duration
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), make([]byte, 992))
	})
	w.Go(func() {
		if _, ok := srv.Recv(); ok {
			at = w.Now()
		}
	})
	w.Run()
	if want := 11 * time.Millisecond; at != want {
		t.Errorf("arrival at %v, want %v (992B payload + 8B overhead at 1 MB/s)", at, want)
	}
}

// TestBulkTransferDelaysButDoesNotStarveDatagrams checks the
// bulk-vs-datagram queue semantics: a long OccupyDown reservation
// delays an interleaved datagram by at most one full queue of
// serialization time — it must NOT tail-drop it, because a real
// bounded buffer holds at most QueueBytes of the stream's bytes at
// once.
func TestBulkTransferDelaysButDoesNotStarveDatagrams(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 10 * time.Millisecond})
	n.SetAccessLink(b.Addr(), AccessProfile{Name: "test", Down: 1e6, QueueBytes: 75000})
	srv, _ := b.Listen(ProtoUDP, 53, 0)
	var arrivals []time.Duration
	w.Go(func() {
		// A 5-second bulk reservation on the downlink...
		if got := n.OccupyDown(b.Addr(), 5e6); got != 5*time.Second {
			t.Errorf("bulk transfer = %v, want 5s", got)
		}
		// ...must not starve concurrent datagrams — including a second
		// one inside the same bulk window, whose (bulk-induced) waiting
		// must not be mistaken for datagram backlog.
		c := a.Dial(ProtoUDP, 0)
		c.Send(srv.LocalAddr(), make([]byte, 1000))
		w.Sleep(time.Millisecond)
		c.Send(srv.LocalAddr(), make([]byte, 1000))
	})
	w.Go(func() {
		for i := 0; i < 2; i++ {
			if _, ok := srv.Recv(); ok {
				arrivals = append(arrivals, w.Now())
			}
		}
	})
	w.Run()
	if n.Drops.Overflow != 0 {
		t.Fatalf("Drops.Overflow = %d; bulk reservation starved a datagram", n.Drops.Overflow)
	}
	// First: 10ms path + 75ms capped bulk wait (75000B queue at 1 MB/s)
	// + 1ms serialization; second queues right behind it.
	want := []time.Duration{86 * time.Millisecond, 87 * time.Millisecond}
	if !reflect.DeepEqual(arrivals, want) {
		t.Errorf("arrivals %v, want %v", arrivals, want)
	}
}

// TestDownlinkServesInArrivalOrder checks the shared downlink
// serializes datagrams in the order their bytes reach the link, not in
// send order: a datagram sent later over a much shorter path must not
// queue behind (or be dropped by) one still in flight on a long path.
func TestDownlinkServesInArrivalOrder(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	far := n.Host(addr("10.0.0.1"))
	near := n.Host(addr("10.0.0.2"))
	b := n.Host(addr("10.0.0.3"))
	n.SetPath(far.Addr(), b.Addr(), PathParams{Delay: 150 * time.Millisecond})
	n.SetPath(near.Addr(), b.Addr(), PathParams{Delay: 5 * time.Millisecond})
	n.SetAccessLink(b.Addr(), AccessProfile{Name: "test", Down: 1e6})
	srv, _ := b.Listen(ProtoUDP, 53, 0)
	var order []string
	var arrivals []time.Duration
	w.Go(func() {
		c := far.Dial(ProtoUDP, 0)
		c.Send(srv.LocalAddr(), append([]byte("far"), make([]byte, 997)...))
	})
	w.Go(func() {
		c := near.Dial(ProtoUDP, 0)
		c.Send(srv.LocalAddr(), append([]byte("near"), make([]byte, 996)...))
	})
	w.Go(func() {
		for i := 0; i < 2; i++ {
			d, ok := srv.Recv()
			if !ok {
				return
			}
			order = append(order, string(d.Payload[:3]))
			arrivals = append(arrivals, w.Now())
		}
	})
	w.Run()
	if len(order) != 2 || order[0] != "nea" {
		t.Fatalf("delivery order %v, want the near datagram first", order)
	}
	// Near: 5ms path + 1ms serialization; far: 150ms + 1ms — the far
	// datagram must not impose a phantom 150ms queue on the near one.
	if arrivals[0] != 6*time.Millisecond || arrivals[1] != 151*time.Millisecond {
		t.Errorf("arrivals %v, want [6ms 151ms]", arrivals)
	}
}

// TestDialExhaustionFailsLoudly binds the full ephemeral range and
// checks the next Dial panics with a diagnostic instead of spinning
// forever (the regression this guards against).
func TestDialExhaustionFailsLoudly(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	h := n.Host(addr("10.0.0.1"))
	for i := 0; i < ephemeralSpan; i++ {
		h.Dial(ProtoUDP, 8)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Dial on an exhausted port space did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "ephemeral port space exhausted") {
			t.Fatalf("panic message %q lacks diagnostic", msg)
		}
	}()
	h.Dial(ProtoUDP, 8)
}

// TestProfilesWellFormed sanity-checks the named access profiles.
func TestProfilesWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, name := range ProfileNames() {
		if name == "" || names[name] {
			t.Errorf("profile %q: empty or duplicate name", name)
		}
		names[name] = true
		got, err := ProfileByName(name)
		if err != nil || got.Name != name || got.Down <= 0 || got.Up <= 0 {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, got, err)
		}
	}
	for _, want := range []string{"fiber", "cable", "4g", "3g", "satellite"} {
		if !names[want] {
			t.Errorf("missing profile %q", want)
		}
	}
	if _, err := ProfileByName("dialup"); err == nil {
		t.Error("ProfileByName(dialup) succeeded")
	}
}
