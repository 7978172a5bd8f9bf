package netem

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPolicyBlocksUDPPortSilently installs a UDP/853 block and checks
// the datagram vanishes: counted in Drops.Blocked, nothing delivered,
// no notification back to the sender.
func TestPolicyBlocksUDPPortSilently(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 10 * time.Millisecond})
	n.SetPolicy(a.Addr(), b.Addr(), Policy{BlockUDPPorts: []uint16{853}})
	doq, _ := b.Listen(ProtoUDP, 853, 8)
	dns, _ := b.Listen(ProtoUDP, 53, 8)
	var c *Socket
	w.Go(func() {
		c = a.Dial(ProtoUDP, 8)
		c.Send(netip.AddrPortFrom(b.Addr(), 853), []byte("blocked"))
		c.Send(netip.AddrPortFrom(b.Addr(), 53), []byte("allowed"))
	})
	w.Run()
	if doq.RxDatagrams != 0 {
		t.Errorf("blocked port received %d datagrams, want 0", doq.RxDatagrams)
	}
	if dns.RxDatagrams != 1 {
		t.Errorf("allowed port received %d datagrams, want 1", dns.RxDatagrams)
	}
	if n.Drops.Blocked != 1 {
		t.Errorf("Drops.Blocked = %d, want 1", n.Drops.Blocked)
	}
	if c.RxDatagrams != 0 || c.queue.Len() != 0 {
		t.Error("silent block delivered a notification to the sender")
	}
}

// TestPolicyRejectNotifiesSender checks the ICMP-style reject: the
// sender's socket receives a Reject-marked datagram after one full path
// round trip, with no byte accounting on either side.
func TestPolicyRejectNotifiesSender(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 10 * time.Millisecond})
	n.SetPolicy(a.Addr(), b.Addr(), Policy{BlockUDPPorts: []uint16{853}, Reject: true})
	b.Listen(ProtoUDP, 853, 8)
	var got Datagram
	var at time.Duration
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(netip.AddrPortFrom(b.Addr(), 853), []byte("query"))
		d, ok := c.Recv()
		if !ok {
			t.Error("sender socket closed before the reject arrived")
			return
		}
		got, at = d, w.Now()
		if c.RxBytes != 0 || c.RxDatagrams != 0 {
			t.Errorf("reject was byte-accounted: RxBytes=%d RxDatagrams=%d", c.RxBytes, c.RxDatagrams)
		}
	})
	w.Run()
	if !got.Reject || got.Payload != nil {
		t.Errorf("notification = %+v, want Reject with nil payload", got)
	}
	if got.Src != netip.AddrPortFrom(b.Addr(), 853) {
		t.Errorf("notification Src = %v, want the rejected destination", got.Src)
	}
	if want := 20 * time.Millisecond; at != want {
		t.Errorf("reject arrived at %v, want %v (one path round trip)", at, want)
	}
	if n.Drops.Rejected != 1 || n.Drops.Blocked != 0 {
		t.Errorf("Drops = %+v, want exactly one Rejected", n.Drops)
	}
}

// TestPolicyRSTInjectOnTCP checks TCP port blocks with RSTInject notify
// the sender on its source port, the way an injected RST reaches the
// connection that sent the SYN.
func TestPolicyRSTInjectOnTCP(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: 5 * time.Millisecond})
	n.SetPolicy(a.Addr(), b.Addr(), Policy{BlockTCPPorts: []uint16{853}, RSTInject: true})
	b.Listen(ProtoTCP, 853, 0)
	rejected := false
	w.Go(func() {
		c := a.Dial(ProtoTCP, 0)
		c.Send(netip.AddrPortFrom(b.Addr(), 853), []byte("SYN"))
		if d, ok := c.Recv(); ok {
			rejected = d.Reject
		}
	})
	w.Run()
	if !rejected {
		t.Error("no injected RST reached the TCP sender")
	}
	if n.Drops.Rejected != 1 {
		t.Errorf("Drops.Rejected = %d, want 1", n.Drops.Rejected)
	}
}

// TestPolicyClampMTU checks the policy clamp drops oversized datagrams
// silently and independently of the path MTU.
func TestPolicyClampMTU(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPolicy(a.Addr(), b.Addr(), Policy{ClampMTU: 600})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		c.Send(srv.LocalAddr(), make([]byte, 601))
		c.Send(srv.LocalAddr(), make([]byte, 600))
	})
	w.Run()
	if srv.RxDatagrams != 1 {
		t.Errorf("RxDatagrams = %d, want 1 (over-clamp dropped)", srv.RxDatagrams)
	}
	if n.Drops.Clamped != 1 || n.Drops.MTU != 0 {
		t.Errorf("Drops = %+v, want 1 Clamped, 0 MTU", n.Drops)
	}
}

// TestDropsTotalAgreesUnderMixedCauses exercises every drop cause at
// once and checks Total() equals the sum of the per-cause counters and
// the delivered+dropped ledger balances.
func TestDropsTotalAgreesUnderMixedCauses(t *testing.T) {
	w := sim.NewWorld(3)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	n.SetPath(a.Addr(), b.Addr(), PathParams{Delay: time.Millisecond})
	n.SetPolicy(a.Addr(), b.Addr(), Policy{
		BlockUDPPorts: []uint16{853},
		BlockTCPPorts: []uint16{853},
		RSTInject:     true,
		ClampMTU:      1000,
	})
	// A second pair with pure loss, outside the policy.
	c := n.Host(addr("10.0.0.3"))
	n.SetPath(a.Addr(), c.Addr(), PathParams{Delay: time.Millisecond, Loss: 1})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	c.Listen(ProtoUDP, 53, 8)
	total := 0
	w.Go(func() {
		u := a.Dial(ProtoUDP, 8)
		tc := a.Dial(ProtoTCP, 0)
		u.Send(netip.AddrPortFrom(b.Addr(), 853), []byte("blocked"))  // Blocked
		u.Send(netip.AddrPortFrom(b.Addr(), 853), []byte("blocked2")) // Blocked
		tc.Send(netip.AddrPortFrom(b.Addr(), 853), []byte("SYN"))     // Rejected
		u.Send(srv.LocalAddr(), make([]byte, 1001))                   // Clamped
		u.Send(srv.LocalAddr(), make([]byte, DefaultMTU+1))           // MTU... clamped first
		u.Send(netip.AddrPortFrom(b.Addr(), 99), []byte("nobody"))    // NoRoute
		u.Send(netip.AddrPortFrom(c.Addr(), 53), []byte("lossy"))     // Loss
		u.Send(srv.LocalAddr(), []byte("ok"))                         // delivered
		total = 8
	})
	w.Run()
	d := n.Drops
	if d.Blocked != 2 || d.Rejected != 1 || d.Clamped != 2 || d.NoRoute != 1 || d.Loss != 1 {
		t.Errorf("Drops = %+v, want Blocked 2, Rejected 1, Clamped 2, NoRoute 1, Loss 1", d)
	}
	if sum := d.Loss + d.MTU + d.NoRoute + d.Overflow + d.Blocked + d.Rejected + d.Clamped; d.Total() != sum {
		t.Errorf("Total() = %d, want %d (sum of causes)", d.Total(), sum)
	}
	if d.Total()+n.Delivered != total {
		t.Errorf("dropped %d + delivered %d != sent %d", d.Total(), n.Delivered, total)
	}
}

// TestPathScheduleBoundaryExact pins SetPathSchedule's boundary
// semantics: a datagram sent exactly at a step's At uses that step's
// parameters, one nanosecond earlier uses the previous ones.
func TestPathScheduleBoundaryExact(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	base := PathParams{Delay: time.Millisecond}
	n.SetPath(a.Addr(), b.Addr(), base)
	n.SetPathSchedule(a.Addr(), b.Addr(), []PathStep{
		{At: time.Second, Params: PathParams{Delay: time.Millisecond, Loss: 1}},
	})
	if got := n.PathAt(a.Addr(), b.Addr(), time.Second-time.Nanosecond).Loss; got != 0 {
		t.Errorf("PathAt(At-1ns).Loss = %v, want 0 (previous params)", got)
	}
	if got := n.PathAt(a.Addr(), b.Addr(), time.Second).Loss; got != 1 {
		t.Errorf("PathAt(At).Loss = %v, want 1 (step active exactly at At)", got)
	}
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		w.Sleep(time.Second - time.Nanosecond)
		c.Send(srv.LocalAddr(), []byte("last-clean"))
		w.Sleep(time.Nanosecond) // now exactly At
		c.Send(srv.LocalAddr(), []byte("first-lossy"))
	})
	w.Run()
	if srv.RxDatagrams != 1 || n.Drops.Loss != 1 {
		t.Errorf("delivered %d, Drops.Loss %d; want 1 and 1 (blackout starts exactly at At)",
			srv.RxDatagrams, n.Drops.Loss)
	}
}

// TestBurstStatePersistsAcrossScheduleFlip drives the Gilbert–Elliott
// chain into its bad state, flips the path schedule to a new step
// mid-burst, and checks the chain is still bad afterwards: link state
// must survive schedule changes exactly like a real fade straddling a
// routing or policy flip.
func TestBurstStatePersistsAcrossScheduleFlip(t *testing.T) {
	w := sim.NewWorld(1)
	n := NewNetwork(w)
	a := n.Host(addr("10.0.0.1"))
	b := n.Host(addr("10.0.0.2"))
	// Enters the bad state on the first datagram and (essentially)
	// never leaves; every bad-state datagram is dropped.
	stuckBad := BurstLoss{PGoodBad: 1, PBadGood: 1e-12, LossBad: 1}
	n.SetPathSchedule(a.Addr(), b.Addr(), []PathStep{
		{At: 0, Params: PathParams{Delay: time.Millisecond, Burst: stuckBad}},
		// The flip changes delay (a different step), keeps the chain
		// parameters — if the flip reset ls.bad, the chain would restart
		// in the good state and deliver the first post-flip datagram.
		{At: time.Second, Params: PathParams{Delay: 2 * time.Millisecond, Burst: BurstLoss{PGoodBad: 1e-12, PBadGood: 1e-12, LossBad: 1}}},
	})
	srv, _ := b.Listen(ProtoUDP, 53, 8)
	w.Go(func() {
		c := a.Dial(ProtoUDP, 8)
		for i := 0; i < 5; i++ {
			c.Send(srv.LocalAddr(), []byte("pre-flip"))
			w.Sleep(10 * time.Millisecond)
		}
		w.Sleep(time.Second)
		for i := 0; i < 5; i++ {
			c.Send(srv.LocalAddr(), []byte("post-flip"))
			w.Sleep(10 * time.Millisecond)
		}
	})
	w.Run()
	if srv.RxDatagrams != 0 {
		t.Errorf("delivered %d datagrams, want 0: burst bad state must persist across the schedule flip", srv.RxDatagrams)
	}
	if n.Drops.Loss != 10 {
		t.Errorf("Drops.Loss = %d, want 10", n.Drops.Loss)
	}
}
