package netem

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/sim"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestDatagramDeliveryWithDelay(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetSymmetricPath(a.Addr(), b.Addr(), PathParams{Delay: 25 * time.Millisecond})

	srv, err := b.Listen(ProtoUDP, 53, 8)
	if err != nil {
		t.Fatal(err)
	}
	var rtt time.Duration
	w.Go(func() {
		d, ok := srv.Recv()
		if !ok {
			t.Error("server socket closed")
			return
		}
		srv.Send(d.Src, []byte("pong"))
	})
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		start := w.Now()
		c.Send(srv.LocalAddr(), []byte("ping"))
		if _, ok := c.Recv(); !ok {
			t.Error("client socket closed")
			return
		}
		rtt = w.Now() - start
	})
	w.Run()
	if rtt != 50*time.Millisecond {
		t.Errorf("rtt = %v, want 50ms", rtt)
	}
}

func TestByteAccountingIncludesOverhead(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), make([]byte, 100))
		if c.TxBytes != 108 {
			t.Errorf("TxBytes = %d, want 108", c.TxBytes)
		}
	})
	w.Run()
	if srv.RxBytes != 108 {
		t.Errorf("RxBytes = %d, want 108", srv.RxBytes)
	}
}

func TestLossDropsDatagrams(t *testing.T) {
	w := sim.NewWorld(7)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: time.Millisecond, Loss: 0.5})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	const total = 1000
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		for i := 0; i < total; i++ {
			c.Send(srv.LocalAddr(), []byte("x"))
		}
	})
	w.Run()
	got := srv.RxDatagrams
	if got < 400 || got > 600 {
		t.Errorf("delivered %d of %d with 50%% loss, want ~500", got, total)
	}
	if n.Dropped()+n.Delivered != total {
		t.Errorf("dropped %d + delivered %d != %d", n.Dropped(), n.Delivered, total)
	}
	if n.Drops.Loss != n.Dropped() {
		t.Errorf("Drops.Loss = %d, want all %d drops attributed to loss", n.Drops.Loss, n.Dropped())
	}
}

func TestMTUDrop(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), make([]byte, DefaultMTU+1))
		c.Send(srv.LocalAddr(), make([]byte, DefaultMTU))
	})
	w.Run()
	if srv.RxDatagrams != 1 {
		t.Errorf("RxDatagrams = %d, want 1 (oversized dropped)", srv.RxDatagrams)
	}
	if n.Drops.MTU != 1 {
		t.Errorf("Drops.MTU = %d, want 1", n.Drops.MTU)
	}
}

func TestUnboundPortDrops(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	n.Host(addr("10.0.0.2"))
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(netip.AddrPortFrom(addr("10.0.0.2"), 9), []byte("x"))
		c.Send(netip.AddrPortFrom(addr("10.0.0.3"), 9), []byte("y")) // unknown host
	})
	w.Run()
	if n.Drops.NoRoute != 2 {
		t.Errorf("Drops.NoRoute = %d, want 2", n.Drops.NoRoute)
	}
	if n.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", n.Dropped())
	}
}

func TestRecvTimeout(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	var elapsed time.Duration
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		start := w.Now()
		_, ok := c.RecvTimeout(3 * time.Second)
		if ok {
			t.Error("RecvTimeout returned a datagram")
		}
		elapsed = w.Now() - start
	})
	w.Run()
	if elapsed != 3*time.Second {
		t.Errorf("elapsed = %v, want 3s", elapsed)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		s := a.Dial(ProtoUDP, 8)
		p := s.LocalAddr().Port()
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestDoubleListenFails(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	if _, err := a.Listen(ProtoUDP, 53, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(ProtoUDP, 53, 8); err == nil {
		t.Error("second Listen on same port succeeded")
	}
}

func TestCloseUnbinds(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	s, _ := a.Listen(ProtoUDP, 53, 8)
	s.Close()
	if _, err := a.Listen(ProtoUDP, 53, 8); err != nil {
		t.Errorf("rebind after close failed: %v", err)
	}
}

// TestPooledDatagramPathZeroAlloc is the pooled byte path's regression
// guard: a steady-state UDP echo whose buffers are leased from and
// returned to the network's byte pool must not allocate per datagram
// once every pool (buffers, inflight carriers, timer entries, queue
// rings) is warm.
func TestPooledDatagramPathZeroAlloc(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetSymmetricPath(a.Addr(), b.Addr(), PathParams{Delay: 200 * time.Microsecond})

	srv, err := b.Listen(ProtoUDP, 53, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.Go(func() {
		for {
			d, ok := srv.Recv()
			if !ok {
				return
			}
			reply := append(srv.Pool().Get(len(d.Payload)), d.Payload...)
			srv.Pool().Put(d.Payload)
			srv.Send(d.Src, reply)
		}
	})
	payload := []byte("0123456789abcdef0123456789abcdef")
	cli := a.Dial(ProtoUDP, 8)
	w.Go(func() {
		for {
			cli.Send(srv.LocalAddr(), append(cli.Pool().Get(len(payload)), payload...))
			d, ok := cli.Recv()
			if !ok {
				return
			}
			cli.Pool().Put(d.Payload)
			w.Sleep(time.Millisecond)
		}
	})
	w.RunFor(50 * time.Millisecond) // warm every pool
	allocs := testing.AllocsPerRun(10, func() {
		w.RunFor(20 * time.Millisecond) // ~20 full round trips
	})
	if allocs != 0 {
		t.Errorf("pooled datagram echo allocated %v objects per 20ms slice, want 0", allocs)
	}
}

// TestSocketHandleDeliversInline: a handled socket receives each
// datagram at its delivery instant without a task switch, and queues
// nothing for Recv.
func TestSocketHandleDeliversInline(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetSymmetricPath(a.Addr(), b.Addr(), PathParams{Delay: 25 * time.Millisecond})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	var got []string
	var at []time.Duration
	srv.Handle(func(d Datagram) {
		got = append(got, string(d.Payload))
		at = append(at, w.Now())
	}, nil)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), []byte("one"))
		c.Send(srv.LocalAddr(), []byte("two"))
	})
	w.Run()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("handler got %q, want [one two]", got)
	}
	if at[0] != 25*time.Millisecond || at[1] != 25*time.Millisecond {
		t.Errorf("delivered at %v, want 25ms", at)
	}
	if srv.queue.Len() != 0 {
		t.Errorf("%d datagrams queued for Recv on a handled socket", srv.queue.Len())
	}
	if s := w.Stats(); s.Handoffs != 1 || s.Spawns != 1 {
		t.Errorf("Stats = %+v, want only the sending task's handoff", s)
	}
}

func TestSocketHandlePanicsWithQueuedDatagrams(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	srv, _ := a.Listen(ProtoUDP, 53, 8)
	w.Go(func() { a.Dial(ProtoUDP, 8).Send(srv.LocalAddr(), []byte("early")) })
	w.Run()
	defer func() {
		if recover() == nil {
			t.Error("Handle on a socket with a queued datagram did not panic")
		}
	}()
	srv.Handle(func(Datagram) {}, nil)
}

// TestSocketCloseRunsClosedOnceAsTask: closed runs once, as a task of
// its own queued behind the tasks already runnable when Close ran, and
// the handler sees nothing after Close.
func TestSocketCloseRunsClosedOnceAsTask(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	srv, _ := a.Listen(ProtoUDP, 53, 8)
	var order []string
	recvd := 0
	srv.Handle(func(Datagram) { recvd++ }, func() { order = append(order, "closed") })
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), []byte("before"))
		w.Sleep(time.Second)
		c.Send(srv.LocalAddr(), []byte("lost"))
		w.Go(func() { order = append(order, "runnable") })
		srv.Close()
		srv.Close()
		order = append(order, "closer")
	})
	w.Run()
	want := []string{"closer", "runnable", "closed"}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v, want %v", order, want)
	}
	if recvd != 1 {
		t.Errorf("handler received %d datagrams, want 1 (none after Close)", recvd)
	}
}
