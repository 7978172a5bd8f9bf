package racing

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/netapi"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

type env struct {
	w      *sim.World
	n      *netem.Network
	client *netem.Host
	server *netem.Host
	rng    *rand.Rand
	cache  *tlsmini.SessionCache
}

func newEnv(t *testing.T, seed int64, rtt time.Duration) *env {
	t.Helper()
	w := sim.NewWorld(seed)
	n := netem.NewNetwork(w)
	ch := n.Host(netip.MustParseAddr("10.0.0.1"))
	sh := n.Host(netip.MustParseAddr("10.0.0.2"))
	n.SetSymmetricPath(ch.Addr(), sh.Addr(), netem.PathParams{Delay: rtt / 2})
	rng := rand.New(rand.NewSource(seed))
	e := &env{w: w, n: n, client: ch, server: sh, rng: rng, cache: tlsmini.NewSessionCache()}
	answer := netip.MustParseAddr("93.184.216.34")
	srv := dox.NewServer(simnet.New(sh, rng), dox.ServerConfig{
		Handler: func(q *dnsmsg.Message, proto dox.Protocol, _ netip.AddrPort) *dnsmsg.Message {
			r := dnsmsg.Reply(*q)
			r.AnswerA(answer, 300)
			return &r
		},
		Identity:    tlsmini.GenerateIdentity(rng, "resolver.example", 1000),
		TicketStore: tlsmini.NewTicketStore(),
		TokenKey:    []byte("token-key"),
	})
	if err := srv.ServeAll(); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *env) stub(mut func(*Config)) *Stub {
	cfg := Config{
		Options: dox.Options{
			Backend:      simnet.New(e.client, e.rng),
			Resolver:     e.server.Addr(),
			ServerName:   "resolver.example",
			SessionCache: e.cache,
			// Keep abandoned Do53 attempts short so worlds drain fast.
			UDPTimeout: 500 * time.Millisecond,
			UDPBackoff: 2,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

// blockUDP853And443 is the "enterprise middlebox" of E25: QUIC-carrying
// UDP ports blackholed, TCP untouched.
func blockUDP853And443(e *env) {
	e.n.SetPolicy(e.client.Addr(), e.server.Addr(), netem.Policy{
		BlockUDPPorts: []uint16{dox.PortDoQ, dox.PortDoH3},
	})
}

func TestRaceFallsBackToDoT(t *testing.T) {
	e := newEnv(t, 1, 40*time.Millisecond)
	blockUDP853And443(e)
	var got dox.Protocol
	var raceTime time.Duration
	e.w.Go(func() {
		s := e.stub(nil)
		q := dnsmsg.NewQuery(1, "example.com", dnsmsg.TypeA)
		resp, proto, err := s.Resolve(&q)
		if err != nil {
			t.Errorf("resolve: %v", err)
			return
		}
		if _, ok := resp.FirstA(); !ok {
			t.Error("no A answer")
		}
		got = proto
		raceTime = s.Metrics().LastRaceTime
		s.Close()
	})
	e.w.Run()
	if got != dox.DoT {
		t.Fatalf("winner = %v, want DoT (first unblocked rung)", got)
	}
	// DoT starts after two staggers (DoQ, DoH3 go first) and needs
	// ~3 RTT (TCP + TLS 1.3 + query): the fallback penalty is bounded,
	// not a timeout multiple.
	if raceTime < 2*DefaultStagger || raceTime > 2*DefaultStagger+4*40*time.Millisecond {
		t.Errorf("race took %v, want ~%v + 3 RTT", raceTime, 2*DefaultStagger)
	}
}

func TestPreferredRungWinsUnhindered(t *testing.T) {
	e := newEnv(t, 2, 40*time.Millisecond)
	var got dox.Protocol
	e.w.Go(func() {
		s := e.stub(nil)
		q := dnsmsg.NewQuery(2, "example.com", dnsmsg.TypeA)
		_, proto, err := s.Resolve(&q)
		if err != nil {
			t.Errorf("resolve: %v", err)
			return
		}
		got = proto
		s.Close()
	})
	e.w.Run()
	if got != dox.DoQ {
		t.Errorf("winner = %v, want DoQ on a clean path", got)
	}
}

func TestStickyWinnerServesFollowUps(t *testing.T) {
	e := newEnv(t, 3, 40*time.Millisecond)
	blockUDP853And443(e)
	e.w.Go(func() {
		s := e.stub(nil)
		for i := 0; i < 3; i++ {
			q := dnsmsg.NewQuery(uint16(10+i), "example.com", dnsmsg.TypeA)
			_, proto, err := s.Resolve(&q)
			if err != nil {
				t.Errorf("resolve %d: %v", i, err)
				return
			}
			if proto != dox.DoT {
				t.Errorf("resolve %d over %v, want DoT", i, proto)
			}
		}
		m := s.Metrics()
		if m.Races != 1 {
			t.Errorf("races = %d, want 1 (sticky session reused)", m.Races)
		}
		if m.Sticky != 2 {
			t.Errorf("sticky serves = %d, want 2", m.Sticky)
		}
		s.Close()
	})
	e.w.Run()
}

func TestReprobeClimbsBackAfterBlockLifts(t *testing.T) {
	e := newEnv(t, 4, 40*time.Millisecond)
	blockUDP853And443(e)
	e.w.Go(func() {
		s := e.stub(nil)
		q := dnsmsg.NewQuery(20, "example.com", dnsmsg.TypeA)
		_, proto, err := s.Resolve(&q)
		if err != nil {
			t.Errorf("blocked resolve: %v", err)
			return
		}
		if proto != dox.DoT {
			t.Errorf("blocked winner = %v, want DoT", proto)
		}
		// The middlebox goes away; after the re-probe interval the
		// next resolve races again and DoQ wins its rung back.
		e.n.SetPolicy(e.client.Addr(), e.server.Addr(), netem.Policy{})
		s.rt.Sleep(DefaultReprobeInterval)
		q2 := dnsmsg.NewQuery(21, "example.com", dnsmsg.TypeA)
		_, proto, err = s.Resolve(&q2)
		if err != nil {
			t.Errorf("re-probe resolve: %v", err)
			return
		}
		if proto != dox.DoQ {
			t.Errorf("re-probe winner = %v, want DoQ after block lifted", proto)
		}
		// DoQ is now the sticky session: the next resolve reuses it
		// without racing.
		before := s.Metrics()
		q3 := dnsmsg.NewQuery(22, "example.com", dnsmsg.TypeA)
		if _, proto, err = s.Resolve(&q3); err != nil || proto != dox.DoQ {
			t.Errorf("sticky resolve = %v, %v; want DoQ", proto, err)
		}
		if after := s.Metrics(); after.Sticky != before.Sticky+1 || after.Races != before.Races {
			t.Errorf("resolve after re-probe was not served by the sticky DoQ session: %+v -> %+v", before, after)
		}
		s.Close()
	})
	e.w.Run()
}

func TestRaceFailsWhenEverythingBlocked(t *testing.T) {
	e := newEnv(t, 5, 40*time.Millisecond)
	// Reject everywhere: every transport fails fast instead of
	// retransmitting into a blackhole for minutes of virtual time.
	e.n.SetPolicy(e.client.Addr(), e.server.Addr(), netem.Policy{
		BlockAllUDP:   true,
		Reject:        true,
		BlockTCPPorts: []uint16{dox.PortDoTCP, dox.PortDoT, dox.PortDoH},
		RSTInject:     true,
	})
	e.w.Go(func() {
		s := e.stub(nil)
		q := dnsmsg.NewQuery(30, "example.com", dnsmsg.TypeA)
		_, _, err := s.Resolve(&q)
		if err == nil {
			t.Error("resolve succeeded through a total block")
		}
		s.Close()
	})
	e.w.Run()
}

// ejected reports whether upstream i is inside an ejection cooldown.
func ejected(rt netapi.Runtime, f *Failover, i int) bool {
	return rt.Now() < f.st[i].ejectedUntil
}

// ejectAt fails upstream i until it is ejected (giving up after ten
// failures) and returns the number of failures that took and the
// cooldown it drew.
func ejectAt(rt netapi.Runtime, f *Failover, i int) (failures int, cooldown time.Duration) {
	for failures < 10 && !ejected(rt, f, i) {
		f.Report(i, false)
		failures++
	}
	return failures, f.st[i].ejectedUntil - rt.Now()
}

// checkCooldown fails unless got lies within ±jitterFrac of the k-th
// consecutive ejection's cooldown, DefaultCooldownBase·2^k capped at
// DefaultCooldownMax.
func checkCooldown(t *testing.T, k int, got time.Duration) {
	t.Helper()
	want := DefaultCooldownBase << k
	if want > DefaultCooldownMax {
		want = DefaultCooldownMax
	}
	lo := time.Duration(float64(want) * (1 - jitterFrac))
	hi := time.Duration(float64(want) * (1 + jitterFrac))
	if got < lo || got > hi {
		t.Errorf("ejection %d: cooldown %v outside [%v, %v]", k, got, lo, hi)
	}
}

func TestFailoverEjectsAndReadmits(t *testing.T) {
	w := sim.NewWorld(6)
	rt := simnet.NewRuntime(w, rand.New(rand.NewSource(6)))
	w.Go(func() {
		f := NewFailover(rt, 3)
		if got := f.Pick(); got != 0 {
			t.Fatalf("initial pick = %d, want 0", got)
		}
		// Two failures are tolerated; the third ejects.
		f.Report(0, false)
		f.Report(0, false)
		if got := f.Pick(); got != 0 {
			t.Fatalf("pick after 2 failures = %d, want 0", got)
		}
		f.Report(0, false)
		if got := f.Pick(); got != 1 {
			t.Fatalf("pick after ejection = %d, want 1", got)
		}
		if !ejected(rt, f, 0) {
			t.Fatal("upstream 0 not marked ejected")
		}
		checkCooldown(t, 0, f.st[0].ejectedUntil-rt.Now())
		// After the cooldown (2s base, ±10% jitter) the preferred
		// upstream is retried.
		rt.Sleep(3 * time.Second)
		if got := f.Pick(); got != 0 {
			t.Fatalf("pick after cooldown = %d, want 0", got)
		}
		// A success clears the record entirely.
		f.Report(0, true)
		if ejected(rt, f, 0) {
			t.Fatal("upstream 0 still ejected after success")
		}
	})
	w.Run()
}

func TestFailoverAllEjectedPicksSoonest(t *testing.T) {
	w := sim.NewWorld(7)
	rt := simnet.NewRuntime(w, rand.New(rand.NewSource(7)))
	w.Go(func() {
		f := NewFailover(rt, 2)
		ejectAt(rt, f, 0) // ejected until +2s±10%
		rt.Sleep(time.Second)
		ejectAt(rt, f, 1) // ejected until +3s±10%
		if got := f.Pick(); got != 0 {
			t.Fatalf("all-ejected pick = %d, want 0 (soonest cooldown)", got)
		}
	})
	w.Run()
}

func TestFailoverProbationReejectsOnOneFailure(t *testing.T) {
	w := sim.NewWorld(9)
	rt := simnet.NewRuntime(w, rand.New(rand.NewSource(9)))
	w.Go(func() {
		f := NewFailover(rt, 2)
		// Full threshold for the first ejection.
		if n, _ := ejectAt(rt, f, 0); n != DefaultEjectAfter {
			t.Fatalf("ejected after %d failures, want %d", n, DefaultEjectAfter)
		}
		rt.Sleep(3 * time.Second)
		if got := f.Pick(); got != 0 {
			t.Fatalf("pick after cooldown = %d, want 0 (probation probe)", got)
		}
		// On probation, a single failed probe re-ejects immediately,
		// with a doubled cooldown.
		f.Report(0, false)
		if !ejected(rt, f, 0) {
			t.Fatal("probation failure did not re-eject")
		}
		checkCooldown(t, 1, f.st[0].ejectedUntil-rt.Now())
		// And a probe that succeeds clears probation: the next failure
		// is tolerated up to the full threshold again.
		rt.Sleep(5 * time.Second)
		f.Report(0, true)
		f.Report(0, false)
		if ejected(rt, f, 0) {
			t.Fatal("single failure after recovery ejected a healthy upstream")
		}
	})
	w.Run()
}

func TestFailoverCooldownBacksOff(t *testing.T) {
	w := sim.NewWorld(8)
	rt := simnet.NewRuntime(w, rand.New(rand.NewSource(8)))
	w.Go(func() {
		f := NewFailover(rt, 1)
		// The first ejection takes the full threshold; each probation
		// failure after a cooldown re-ejects at once, doubling the
		// cooldown up to the cap. Jitter moves every cooldown off the
		// unjittered base.
		for k := 0; k < 8; k++ {
			failures, cooldown := ejectAt(rt, f, 0)
			if cooldown == DefaultCooldownBase<<k || cooldown == DefaultCooldownMax {
				t.Errorf("ejection %d: cooldown %v carries no jitter", k, cooldown)
			}
			want := 1
			if k == 0 {
				want = DefaultEjectAfter
			}
			if failures != want {
				t.Errorf("ejection %d took %d failures, want %d", k, failures, want)
			}
			checkCooldown(t, k, cooldown)
			rt.Sleep(cooldown)
		}
	})
	w.Run()
}
