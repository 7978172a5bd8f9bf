package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/browser"
	"repro/internal/bytepool"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/dnsmsg"
	"repro/internal/dnsproxy"
	"repro/internal/dox"
	"repro/internal/dox/racing"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/h2"
	"repro/internal/h3"
	"repro/internal/netapi"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/pages"
	"repro/internal/quic"
	"repro/internal/resolver"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/tlsmini"
)

// The probe circuit: one fixed-iteration loop per layer entry point, run
// in a benchmark-owned sim.World, timed from outside the layer. A probe's
// number is inclusive of the layers beneath it; differences between
// probes (netem.send_policy - netem.send, simnet.dgram_echo - netem.send)
// isolate one layer's share.

// probe is one entry of the circuit. n is the iteration count at the
// committed size, chosen so the timed region runs at least 0.3 s on the
// reference machine.
type probe struct {
	name string
	n    int
	run  func(pc *probeCtx)
}

// probeResult is what a probe emits: host ns and allocations per
// iteration of its timed region.
type probeResult struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	Ns     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
}

// probeCtx carries one probe's iteration count and accumulates the cost
// of its timed regions. Every region, timed or not, is a child span of
// the probe's span.
type probeCtx struct {
	tr      *tracer
	span    int
	n       int
	wall    time.Duration
	mallocs uint64
	err     error
}

// setup records fn as an untimed child span: work in a lower layer the
// probe needs before its loop.
func (pc *probeCtx) setup(name string, fn func()) { pc.tr.in(pc.span, name, fn) }

// timed records fn as a child span and adds its wall time and
// allocations to the probe's result.
func (pc *probeCtx) timed(name string, fn func()) {
	wall, mallocs, _ := pc.tr.metered(pc.span, name, fn)
	pc.wall += wall
	pc.mallocs += mallocs
}

func (pc *probeCtx) fail(format string, args ...any) {
	if pc.err == nil {
		pc.err = fmt.Errorf(format, args...)
	}
}

// runProbes executes the circuit in order. scale divides every n (1 at
// the committed size, 100 for the smoke size).
func runProbes(tr *tracer, scale int) ([]probeResult, error) {
	var out []probeResult
	for _, p := range probes {
		n := max(1, p.n/scale)
		pc := &probeCtx{tr: tr, n: n}
		pc.span = tr.begin(0, "probe/"+p.name)
		runtime.GC() // each probe starts from a collected heap
		p.run(pc)
		tr.end(pc.span)
		if pc.err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, pc.err)
		}
		out = append(out, probeResult{
			Name:   p.name,
			N:      n,
			Ns:     float64(pc.wall.Nanoseconds()) / float64(n),
			Allocs: math.Round(float64(pc.mallocs)/float64(n)*100) / 100,
		})
	}
	return out, nil
}

// rig is the two-host world most probes run in.
type rig struct {
	w              *sim.World
	net            *netem.Network
	client, server *netem.Host
	rng            *rand.Rand
}

var (
	clientAddr = netip.MustParseAddr("10.0.0.1")
	serverAddr = netip.MustParseAddr("10.0.0.2")
	answerAddr = netip.MustParseAddr("93.184.216.34")
	// probePath is a short lossless path: the probes measure host cost,
	// and loss would make their work vary.
	probePath = netem.PathParams{Delay: 5 * time.Millisecond}
)

const probeServerName = "resolver.example"

// sessionOps is how many operations the warm probes put on one session
// before reconnecting. The per-stream cost of a QUIC connection grows
// with the streams it has carried (15 us at 200 streams, 600 us at
// 20 000), so a probe must fix the session length to be repeatable; 256
// is the order of a proxy_cache upstream session.
const sessionOps = 256

func (pc *probeCtx) newRig() *rig {
	r := &rig{rng: rand.New(rand.NewSource(1))}
	pc.setup("sim.NewWorld", func() { r.w = sim.NewWorld(1) })
	pc.setup("netem.NewNetwork", func() {
		r.net = netem.NewNetwork(r.w)
		r.client = r.net.Host(clientAddr)
		r.server = r.net.Host(serverAddr)
		r.net.SetSymmetricPath(clientAddr, serverAddr, probePath)
		r.net.SetPath(clientAddr, clientAddr, netem.PathParams{Delay: 50 * time.Microsecond})
	})
	return r
}

// run drives the world to quiescence as the probe's timed region, then
// reaps it.
func (r *rig) run(pc *probeCtx) {
	pc.timed("sim.World.Run", func() { r.w.Run() })
	pc.setup("sim.World.Shutdown", r.w.Shutdown)
}

// pipeStream is an in-memory tlsmini.Stream, so the TLS and HTTP/2
// probes measure their layer without a transport beneath.
type pipeStream struct {
	out, in *sim.Queue[[]byte]
}

func (p *pipeStream) Write(b []byte) error {
	p.out.Push(append([]byte(nil), b...))
	return nil
}
func (p *pipeStream) Read() ([]byte, bool) { return p.in.Pop() }
func (p *pipeStream) Close()               { p.out.Close() }

func pipe(w *sim.World) (a, b tlsmini.Stream) {
	q1 := sim.NewQueue[[]byte](w, "probe-ab")
	q2 := sim.NewQueue[[]byte](w, "probe-ba")
	return &pipeStream{out: q1, in: q2}, &pipeStream{out: q2, in: q1}
}

// --- sim ---

func probeSimSwitch(pc *probeCtx) {
	w := sim.NewWorld(1)
	for t := 0; t < 2; t++ {
		w.Go(func() {
			for i := 0; i < pc.n; i++ {
				w.Sleep(0)
			}
		})
	}
	pc.timed("sim.World.Run", func() { w.Run() })
	w.Shutdown()
}

func probeSimTimerChurn(pc *probeCtx) {
	w := sim.NewWorld(1)
	fn := func() {}
	w.Go(func() {
		for i := 0; i < pc.n; i++ {
			w.AfterFunc(time.Hour, fn).Stop()
		}
	})
	pc.timed("sim.World.Run", func() { w.Run() })
	w.Shutdown()
}

func probeSimQueueHandoff(pc *probeCtx) {
	w := sim.NewWorld(1)
	q := sim.NewQueue[int](w, "probe")
	w.Go(func() {
		for i := 0; i < pc.n; i++ {
			q.Push(i)
			w.Yield()
		}
		q.Close()
	})
	w.Go(func() {
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
		}
	})
	pc.timed("sim.World.Run", func() { w.Run() })
	w.Shutdown()
}

func probeSimWorldCycle(pc *probeCtx) {
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			w := sim.NewWorld(int64(i))
			for t := 0; t < 8; t++ {
				w.Go(func() { w.Sleep(time.Millisecond) })
			}
			w.Run()
			w.Shutdown()
		}
	})
}

// --- netem and the simnet seam ---

// echo is the datagram exchange of the netem probes: bursts of
// datagrams of size bytes go out, the server echoes each, the client
// collects them. It runs directly on netem sockets.
func echo(pc *probeCtx, r *rig, size, burst int) {
	srv, err := r.server.Listen(netem.ProtoUDP, 53, 8)
	if err != nil {
		pc.fail("listen: %v", err)
		return
	}
	cli := r.client.Dial(netem.ProtoUDP, 8)
	r.w.Go(func() {
		for {
			d, ok := srv.Recv()
			if !ok {
				return
			}
			srv.Send(d.Src, d.Payload)
		}
	})
	r.w.Go(func() {
		defer srv.Close()
		defer cli.Close()
		for i := 0; i < pc.n; i += burst {
			for b := 0; b < burst; b++ {
				cli.Send(srv.LocalAddr(), cli.Pool().Get(size)[:size])
			}
			for b := 0; b < burst; b++ {
				d, ok := cli.RecvTimeout(time.Minute)
				if !ok || len(d.Payload) != size {
					pc.fail("echo %d lost", i)
					return
				}
				cli.Pool().Put(d.Payload)
			}
		}
	})
	r.run(pc)
}

func probeNetemSend(pc *probeCtx) { echo(pc, pc.newRig(), 64, 1) }

func probeNetemSendPolicy(pc *probeCtx) {
	r := pc.newRig()
	// A policy that never matches port 53: the cost of having the
	// middlebox hook armed.
	r.net.SetPolicy(clientAddr, serverAddr, netem.Policy{BlockUDPPorts: []uint16{9}})
	echo(pc, r, 64, 1)
}

func probeNetemSendQueued(pc *probeCtx) {
	r := pc.newRig()
	cable, err := netem.ProfileByName("cable")
	if err != nil {
		pc.fail("%v", err)
		return
	}
	r.net.SetAccessLink(clientAddr, cable)
	// Bursts of four keep the bottleneck queue occupied.
	echo(pc, r, 1200, 4)
}

// probeSimnetDgramEcho is the netem.send exchange through the seam's
// PacketConn interface; the difference between the two is the seam.
func probeSimnetDgramEcho(pc *probeCtx) {
	r := pc.newRig()
	srv, err := simnet.New(r.server, r.rng).ListenUDP(53, 8)
	if err != nil {
		pc.fail("listen: %v", err)
		return
	}
	cli, err := simnet.New(r.client, r.rng).DialUDP(8)
	if err != nil {
		pc.fail("dial: %v", err)
		return
	}
	r.w.Go(func() {
		for {
			d, ok := srv.Recv()
			if !ok {
				return
			}
			srv.Send(d.Src, d.Payload)
		}
	})
	r.w.Go(func() {
		defer srv.Close()
		defer cli.Close()
		for i := 0; i < pc.n; i++ {
			cli.Send(srv.LocalAddr(), cli.Pool().Get(64)[:64])
			d, ok := cli.RecvTimeout(time.Minute)
			if !ok || len(d.Payload) != 64 {
				pc.fail("echo %d lost", i)
				return
			}
			cli.Pool().Put(d.Payload)
		}
	})
	r.run(pc)
}

func probeSimnetTimer(pc *probeCtx) {
	w := sim.NewWorld(1)
	var rt netapi.Runtime = simnet.NewRuntime(w, nil)
	fn := func() {}
	w.Go(func() {
		for i := 0; i < pc.n; i++ {
			rt.AfterFunc(time.Hour, fn).Stop()
		}
	})
	pc.timed("sim.World.Run", func() { w.Run() })
	w.Shutdown()
}

// --- bytepool ---

func probeBytepoolLease(pc *probeCtx) {
	var p bytepool.Pool
	p.Put(p.Get(512))
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			p.Put(p.Get(512))
		}
	})
}

// --- tlsmini ---

// tlsHandshakes runs n client+server handshakes over fresh pipes. With a
// shared session cache every handshake after the warming one resumes.
func tlsHandshakes(pc *probeCtx, resumed bool) {
	w := sim.NewWorld(1)
	rng := rand.New(rand.NewSource(1))
	id := tlsmini.GenerateIdentity(rng, probeServerName, 1200)
	store := tlsmini.NewTicketStore()
	var sessions *tlsmini.SessionCache
	if resumed {
		sessions = tlsmini.NewSessionCache()
	}
	handshake := func() *tlsmini.Conn {
		cs, ss := pipe(w)
		client := tlsmini.NewConn(cs, tlsmini.Config{
			IsClient: true, ServerName: probeServerName, ALPN: []string{"dot"},
			SessionCache: sessions, Rand: rng, Now: w.Now,
		})
		server := tlsmini.NewConn(ss, tlsmini.Config{
			ALPN: []string{"dot"}, Identity: id, TicketStore: store, Rand: rng, Now: w.Now,
		})
		w.Go(func() {
			if err := server.Handshake(); err != nil {
				pc.fail("server handshake: %v", err)
				return
			}
			if msg, ok := server.Read(); ok {
				_ = server.Write(msg) // the echo delivers the session ticket
			}
		})
		if err := client.Handshake(); err != nil {
			pc.fail("client handshake: %v", err)
			return nil
		}
		_ = client.Write([]byte("ping"))
		if _, ok := client.Read(); !ok {
			pc.fail("echo closed")
		}
		client.Close()
		return client
	}
	if resumed {
		w.Go(func() { handshake() })
		pc.setup("warm", func() { w.Run() })
	}
	w.Go(func() {
		for i := 0; i < pc.n && pc.err == nil; i++ {
			c := handshake()
			if c != nil && c.Engine().UsedResumption() != resumed {
				pc.fail("handshake %d: resumption = %v", i, !resumed)
			}
		}
	})
	pc.timed("sim.World.Run", func() { w.Run() })
	w.Shutdown()
}

func probeTLSFull(pc *probeCtx)    { tlsHandshakes(pc, false) }
func probeTLSResumed(pc *probeCtx) { tlsHandshakes(pc, true) }

// --- tcpsim ---

func probeTCPConnect(pc *probeCtx) {
	r := pc.newRig()
	l, err := tcpsim.Listen(r.server, 853)
	if err != nil {
		pc.fail("%v", err)
		return
	}
	r.w.Go(func() {
		for {
			c, ok := l.Accept()
			if !ok {
				return
			}
			r.w.Go(func() {
				for {
					if _, ok := c.Read(); !ok {
						c.Close()
						return
					}
				}
			})
		}
	})
	r.w.Go(func() {
		defer l.Close()
		for i := 0; i < pc.n; i++ {
			c, err := tcpsim.Dial(r.client, l.Addr())
			if err != nil {
				pc.fail("dial %d: %v", i, err)
				return
			}
			c.Close()
		}
	})
	r.run(pc)
}

func probeTCPBulk(pc *probeCtx) {
	const size = 1 << 20
	r := pc.newRig()
	l, err := tcpsim.Listen(r.server, 443)
	if err != nil {
		pc.fail("%v", err)
		return
	}
	r.w.Go(func() {
		c, ok := l.Accept()
		if !ok {
			return
		}
		got := 0
		for {
			b, ok := c.Read()
			if !ok {
				c.Close()
				return
			}
			if got += len(b); got >= size {
				got -= size
				_ = c.Write([]byte{1})
			}
		}
	})
	r.w.Go(func() {
		defer l.Close()
		c, err := tcpsim.Dial(r.client, l.Addr())
		if err != nil {
			pc.fail("dial: %v", err)
			return
		}
		defer c.Close()
		payload := make([]byte, size)
		for i := 0; i < pc.n; i++ {
			if err := c.Write(payload); err != nil {
				pc.fail("write %d: %v", i, err)
				return
			}
			if _, ok := c.Read(); !ok {
				pc.fail("transfer %d not acknowledged", i)
				return
			}
		}
	})
	r.run(pc)
}

// --- quic ---

// quicRig adds an echo listener: every stream's bytes come back.
type quicRig struct {
	*rig
	l        *quic.Listener
	sessions *tlsmini.SessionCache
}

func (pc *probeCtx) newQUICRig(alpn string, serve func(r *rig, conn *quic.Conn)) *quicRig {
	r := pc.newRig()
	q := &quicRig{rig: r, sessions: tlsmini.NewSessionCache()}
	var err error
	q.l, err = quic.Listen(r.server, 853, quic.Config{
		ALPN:            []string{alpn},
		Identity:        tlsmini.GenerateIdentity(r.rng, probeServerName, 1000),
		TicketStore:     tlsmini.NewTicketStore(),
		TokenKey:        []byte("probe-token-key"),
		AcceptEarlyData: true,
		Rand:            r.rng,
		Now:             r.w.Now,
	})
	if err != nil {
		pc.fail("%v", err)
		return nil
	}
	r.w.Go(func() {
		for {
			conn, ok := q.l.Accept()
			if !ok {
				return
			}
			r.w.Go(func() { serve(r, conn) })
		}
	})
	return q
}

func echoStreams(r *rig, conn *quic.Conn) {
	for {
		st, ok := conn.AcceptStream()
		if !ok {
			return
		}
		r.w.Go(func() {
			if data, ok := st.ReadAll(); ok {
				_ = st.Write(data, true)
			}
		})
	}
}

func (q *quicRig) clientCfg(alpn string, resume bool) quic.Config {
	cfg := quic.Config{
		ALPN: []string{alpn}, ServerName: probeServerName,
		Rand: q.rng, Now: q.w.Now,
	}
	if resume {
		cfg.SessionCache = q.sessions
	}
	return cfg
}

func streamEcho(pc *probeCtx, c *quic.Conn, msg []byte) bool {
	st := c.OpenStream()
	if err := st.Write(msg, true); err != nil {
		pc.fail("stream write: %v", err)
		return false
	}
	got, ok := st.ReadAll()
	if !ok || !bytes.Equal(got, msg) {
		pc.fail("stream echo mismatch")
		return false
	}
	return true
}

func probeQUIC1RTT(pc *probeCtx) {
	q := pc.newQUICRig("doq", echoStreams)
	if q == nil {
		return
	}
	q.w.Go(func() {
		defer q.l.Close()
		for i := 0; i < pc.n; i++ {
			c, err := quic.Dial(q.client, q.l.Addr(), q.clientCfg("doq", false))
			if err != nil {
				pc.fail("dial %d: %v", i, err)
				return
			}
			c.Close()
		}
	})
	q.run(pc)
}

func probeQUIC0RTT(pc *probeCtx) {
	q := pc.newQUICRig("doq", echoStreams)
	if q == nil {
		return
	}
	msg := []byte("early")
	q.w.Go(func() {
		c, err := quic.Dial(q.client, q.l.Addr(), q.clientCfg("doq", true))
		if err != nil {
			pc.fail("warm dial: %v", err)
			return
		}
		streamEcho(pc, c, msg)
		c.Close()
	})
	pc.setup("warm", func() { q.w.Run() })
	q.w.Go(func() {
		defer q.l.Close()
		for i := 0; i < pc.n && pc.err == nil; i++ {
			cfg := q.clientCfg("doq", true)
			cfg.OfferEarlyData = true
			c, _ := quic.DialEarly(q.client, q.l.Addr(), cfg)
			if streamEcho(pc, c, msg) && !c.EarlyDataAccepted() {
				pc.fail("connection %d: 0-RTT not accepted", i)
			}
			c.Close()
		}
	})
	q.run(pc)
}

func probeQUICStreamEcho(pc *probeCtx) {
	q := pc.newQUICRig("doq", echoStreams)
	if q == nil {
		return
	}
	msg := bytes.Repeat([]byte{0xAB}, 64)
	q.w.Go(func() {
		defer q.l.Close()
		for done := 0; done < pc.n && pc.err == nil; done += sessionOps {
			c, err := quic.Dial(q.client, q.l.Addr(), q.clientCfg("doq", false))
			if err != nil {
				pc.fail("dial: %v", err)
				return
			}
			for i := 0; i < min(sessionOps, pc.n-done) && streamEcho(pc, c, msg); i++ {
			}
			c.Close()
		}
	})
	q.run(pc)
}

// --- h2 / h3 ---

var dohRequest = [][2]string{
	{":method", "POST"}, {":scheme", "https"},
	{":authority", probeServerName}, {":path", "/dns-query"},
	{"content-type", "application/dns-message"},
}

func probeH2RoundTrip(pc *probeCtx) {
	w := sim.NewWorld(1)
	cs, ss := pipe(w)
	rt := simnet.NewRuntime(w, nil)
	w.Go(func() {
		h2.ServeConn(rt, ss, func(_ []h2.Header, body []byte) ([]h2.Header, []byte) {
			return []h2.Header{{Name: ":status", Value: "200"}}, body
		})
	})
	headers := make([]h2.Header, len(dohRequest))
	for i, h := range dohRequest {
		headers[i] = h2.Header{Name: h[0], Value: h[1]}
	}
	body := bytes.Repeat([]byte{0xAB}, 48)
	w.Go(func() {
		c, err := h2.NewClientConn(rt, cs)
		if err != nil {
			pc.fail("%v", err)
			return
		}
		defer c.Close()
		for i := 0; i < pc.n; i++ {
			resp, err := c.RoundTrip(headers, body)
			if err != nil || !bytes.Equal(resp.Body, body) {
				pc.fail("round trip %d: %v", i, err)
				return
			}
		}
	})
	pc.timed("sim.World.Run", func() { w.Run() })
	w.Shutdown()
}

func probeH3RoundTrip(pc *probeCtx) {
	q := pc.newQUICRig("h3", func(r *rig, conn *quic.Conn) {
		h3.ServeConn(simnet.NewRuntime(r.w, nil), conn, func(_ []h3.Header, body []byte) ([]h3.Header, []byte) {
			return []h3.Header{{Name: ":status", Value: "200"}}, body
		})
	})
	if q == nil {
		return
	}
	headers := make([]h3.Header, len(dohRequest))
	for i, h := range dohRequest {
		headers[i] = h3.Header{Name: h[0], Value: h[1]}
	}
	body := bytes.Repeat([]byte{0xAB}, 48)
	q.w.Go(func() {
		defer q.l.Close()
		for done := 0; done < pc.n && pc.err == nil; done += sessionOps {
			conn, err := quic.Dial(q.client, q.l.Addr(), q.clientCfg("h3", false))
			if err != nil {
				pc.fail("dial: %v", err)
				return
			}
			c := h3.NewClientConn(simnet.NewRuntime(q.w, nil), conn)
			for i := 0; i < min(sessionOps, pc.n-done); i++ {
				resp, err := c.RoundTrip(headers, body)
				if err != nil || !bytes.Equal(resp.Body, body) {
					pc.fail("round trip %d: %v", done+i, err)
					break
				}
			}
			c.Close()
		}
	})
	q.run(pc)
}

// --- dnsmsg ---

func probeResponse() dnsmsg.Message {
	q := dnsmsg.NewQuery(0x1234, "www.example.com", dnsmsg.TypeA)
	r := dnsmsg.Reply(q)
	r.AnswerA(answerAddr, 300)
	return r
}

func probeDNSEncode(pc *probeCtx) {
	m := probeResponse()
	buf := make([]byte, 0, 512)
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			buf = m.AppendEncode(buf[:0])
		}
	})
	if len(buf) == 0 {
		pc.fail("empty encoding")
	}
}

func probeDNSDecode(pc *probeCtx) {
	m := probeResponse()
	wire := m.Encode()
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			if _, err := dnsmsg.Decode(wire); err != nil {
				pc.fail("%v", err)
				return
			}
		}
	})
}

// --- cache ---

func cacheNames(n int) []cache.Key {
	keys := make([]cache.Key, n)
	for i := range keys {
		keys[i] = cache.Key{Name: fmt.Sprintf("name-%04d.example", i), Type: dnsmsg.TypeA}
	}
	return keys
}

func probeCacheHit(pc *probeCtx) {
	c := cache.New(func() time.Duration { return 0 }, 0)
	keys := cacheNames(256)
	for _, k := range keys {
		c.Put(k, answerAddr, time.Hour)
	}
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			if _, ok := c.Lookup(keys[i%len(keys)]); !ok {
				pc.fail("miss on a cached key")
				return
			}
		}
	})
}

func probeCacheMissPut(pc *probeCtx) {
	// 1024 names cycle through 128 slots: every lookup misses and every
	// put evicts.
	c := cache.New(func() time.Duration { return 0 }, 128)
	keys := cacheNames(1024)
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			k := keys[i%len(keys)]
			if _, ok := c.Lookup(k); ok {
				pc.fail("hit on an evicted key")
				return
			}
			c.Put(k, answerAddr, time.Hour)
		}
	})
}

func probeCacheStale(pc *probeCtx) {
	var now time.Duration
	c := cache.New(func() time.Duration { return now }, 0)
	c.SetStaleCeiling(time.Hour)
	keys := cacheNames(256)
	for _, k := range keys {
		c.Put(k, answerAddr, time.Second)
	}
	now = time.Minute // every entry is expired but inside the ceiling
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			if _, ok := c.LookupStale(keys[i%len(keys)]); !ok {
				pc.fail("stale lookup missed")
				return
			}
		}
	})
	if c.Stats().StaleHits != pc.n {
		pc.fail("stale hits = %d, want %d", c.Stats().StaleHits, pc.n)
	}
}

// --- dox ---

// doxRig runs a resolver endpoint serving every transport.
type doxRig struct {
	*rig
	srv  *dox.Server
	opts dox.Options
}

func (pc *probeCtx) newDoxRig() *doxRig {
	r := pc.newRig()
	d := &doxRig{rig: r}
	pc.setup("dox.NewServer", func() {
		d.srv = dox.NewServer(simnet.New(r.server, r.rng), dox.ServerConfig{
			Handler: func(q *dnsmsg.Message, _ dox.Protocol, _ netip.AddrPort) *dnsmsg.Message {
				resp := dnsmsg.Reply(*q)
				resp.AnswerA(answerAddr, 300)
				return &resp
			},
			Identity:    tlsmini.GenerateIdentity(r.rng, probeServerName, 1000),
			TicketStore: tlsmini.NewTicketStore(),
			TokenKey:    []byte("probe-token-key"),
		})
		if err := d.srv.ServeAll(); err != nil {
			pc.fail("serve: %v", err)
		}
	})
	d.opts = dox.Options{
		Backend:      simnet.New(r.client, r.rng),
		Resolver:     serverAddr,
		ServerName:   probeServerName,
		SessionCache: tlsmini.NewSessionCache(),
	}
	return d
}

// doxCold is Connect + Query + Close per iteration, carrying resumption
// state (ticket, token, version) from one connection to the next as the
// single-query campaign does.
func doxCold(proto dox.Protocol) func(pc *probeCtx) {
	return func(pc *probeCtx) {
		d := pc.newDoxRig()
		if pc.err != nil {
			return
		}
		store := dox.NewQUICSessionStore()
		d.w.Go(func() {
			defer d.srv.Close()
			for i := 0; i < pc.n; i++ {
				o := d.opts
				store.Apply(serverAddr, &o)
				c, err := dox.Connect(proto, o)
				if err != nil {
					pc.fail("connect %d: %v", i, err)
					return
				}
				q := dnsmsg.NewQuery(uint16(i), "google.com", dnsmsg.TypeA)
				if _, err := c.Query(&q); err != nil {
					pc.fail("query %d: %v", i, err)
				}
				store.Remember(serverAddr, c)
				c.Close()
			}
		})
		d.run(pc)
	}
}

// doxWarm is Query on an open session of sessionOps queries.
func doxWarm(proto dox.Protocol) func(pc *probeCtx) {
	return func(pc *probeCtx) {
		d := pc.newDoxRig()
		if pc.err != nil {
			return
		}
		d.w.Go(func() {
			defer d.srv.Close()
			for done := 0; done < pc.n && pc.err == nil; done += sessionOps {
				c, err := dox.Connect(proto, d.opts)
				if err != nil {
					pc.fail("connect: %v", err)
					return
				}
				for i := 0; i < min(sessionOps, pc.n-done); i++ {
					q := dnsmsg.NewQuery(uint16(done+i), "google.com", dnsmsg.TypeA)
					if _, err := c.Query(&q); err != nil {
						pc.fail("query %d: %v", done+i, err)
						break
					}
				}
				c.Close()
			}
		})
		d.run(pc)
	}
}

func probeRacingOpen(pc *probeCtx) {
	d := pc.newDoxRig()
	if pc.err != nil {
		return
	}
	d.w.Go(func() {
		defer d.srv.Close()
		for i := 0; i < pc.n; i++ {
			stub := racing.New(racing.Config{Options: d.opts, ReprobeInterval: -1})
			q := dnsmsg.NewQuery(uint16(i), "google.com", dnsmsg.TypeA)
			if _, _, err := stub.Resolve(&q); err != nil {
				pc.fail("race %d: %v", i, err)
			}
			stub.Close()
		}
	})
	d.run(pc)
}

// --- dnsproxy ---

// proxyQueries sends n stub queries to a proxy on the client host. With
// distinct set, every query names a new host and is forwarded upstream;
// otherwise all but the first hit the stub cache.
func proxyQueries(pc *probeCtx, stubCache, distinct bool) {
	d := pc.newDoxRig()
	if pc.err != nil {
		return
	}
	var proxy *dnsproxy.Proxy
	pc.setup("dnsproxy.New", func() {
		var err error
		proxy, err = dnsproxy.New(d.opts.Backend, dnsproxy.Config{
			Upstream:  dox.DoUDP,
			Options:   dox.Options{Resolver: serverAddr, ServerName: probeServerName},
			StubCache: stubCache,
		})
		if err != nil {
			pc.fail("%v", err)
		}
	})
	if pc.err != nil {
		return
	}
	names := []string{"google.com"}
	if distinct {
		names = make([]string, 4096)
		for i := range names {
			names[i] = fmt.Sprintf("host-%04d.example", i)
		}
	}
	d.w.Go(func() {
		defer d.srv.Close()
		defer proxy.Close()
		sock := d.client.Dial(netem.ProtoUDP, 8)
		defer sock.Close()
		for i := 0; i < pc.n; i++ {
			q := dnsmsg.NewQuery(uint16(i), names[i%len(names)], dnsmsg.TypeA)
			sock.Send(proxy.Addr(), q.AppendEncode(sock.Pool().Get(512)))
			resp, ok := sock.RecvTimeout(time.Minute)
			if !ok {
				pc.fail("query %d unanswered", i)
				return
			}
			sock.Pool().Put(resp.Payload)
		}
		if hits := proxy.StubHits; stubCache && hits != pc.n-1 {
			pc.fail("stub hits = %d, want %d", hits, pc.n-1)
		}
	})
	d.run(pc)
}

func probeProxyHit(pc *probeCtx)     { proxyQueries(pc, true, false) }
func probeProxyForward(pc *probeCtx) { proxyQueries(pc, false, true) }

// --- browser ---

// pageBytes is a page's total transfer size, the order Top10 is probed
// by.
func pageBytes(p *pages.Page) int {
	n := p.HTMLSize
	for _, r := range p.Resources {
		n += r.Size
	}
	return n
}

func browserLoad(largest bool) func(pc *probeCtx) {
	return func(pc *probeCtx) {
		page := pages.Top10()[0]
		for _, p := range pages.Top10() {
			if (pageBytes(p) > pageBytes(page)) == largest && pageBytes(p) != pageBytes(page) {
				page = p
			}
		}
		var u *resolver.Universe
		pc.setup("resolver.NewUniverse", func() {
			var err error
			u, err = resolver.NewUniverse(resolver.UniverseConfig{
				Seed:           1,
				ResolverCounts: map[geo.Continent]int{geo.EU: 1},
				Loss:           resolver.NoLoss,
				Population:     resolver.PopulationParams{BigCertFraction: 0.4, ResponseRate: 1},
			})
			if err != nil {
				pc.fail("%v", err)
			}
		})
		if pc.err != nil {
			return
		}
		vp, res := u.Vantages[0], u.Resolvers[0]
		proxy, err := dnsproxy.New(vp.Backend, dnsproxy.Config{
			Upstream: dox.DoUDP,
			Options:  dox.Options{Resolver: res.Addr, ServerName: res.Name},
		})
		if err != nil {
			pc.fail("%v", err)
			return
		}
		eng := &browser.Engine{Backend: vp.Backend, Proxy: proxy.Addr()}
		u.W.Go(func() {
			for i := 0; i < pc.n; i++ {
				if r := eng.Load(page); r.Err != nil {
					pc.fail("load %d of %s: %v", i, page.Name, r.Err)
					return
				}
			}
		})
		pc.timed("sim.World.Run", func() { u.W.Run() })
		pc.setup("sim.World.Shutdown", u.W.Shutdown)
	}
}

// --- resolver ---

func paperBlueprint(seed int64) (*resolver.Blueprint, error) {
	return resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           seed,
		ResolverCounts: resolver.ScaledCounts(313),
	})
}

func probeResolverBlueprint(pc *probeCtx) {
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			if _, err := paperBlueprint(int64(i)); err != nil {
				pc.fail("%v", err)
				return
			}
		}
	})
}

// probeResolverInstantiate is the per-shard cost of the tiny-shard
// campaigns: one vantage and four resolvers brought up and torn down.
func probeResolverInstantiate(pc *probeCtx) {
	bp, err := paperBlueprint(1)
	if err != nil {
		pc.fail("%v", err)
		return
	}
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			u, err := bp.Instantiate(int64(i), resolver.Scope{Vantages: []int{0}, ResolverLo: 0, ResolverHi: 4})
			if err != nil {
				pc.fail("%v", err)
				return
			}
			u.W.Go(func() {})
			u.W.Run()
			u.W.Shutdown()
		}
	})
}

// --- the remaining layers ---

func probeScanFunnel(pc *probeCtx) {
	spec := scan.PaperSpec().Scaled(32)
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			res, err := scan.RunFunnel(scan.FunnelConfig{Seed: int64(i), Spec: spec, Parallelism: 1})
			if err != nil || res.Probed == 0 {
				pc.fail("funnel %d: probed %d: %v", i, res.Probed, err)
				return
			}
		}
	})
}

// probeCampaignShard runs empty shards in campaigns of 1024, the order
// of the largest shard plans the workloads build.
func probeCampaignShard(pc *probeCtx) {
	const plan = 1024
	pc.timed("campaign.Run", func() {
		for done := 0; done < pc.n; done += plan {
			campaign.Run(1, min(plan, pc.n-done), 1, func(campaign.Shard) struct{} { return struct{}{} })
		}
	})
}

func probeSketchAdd(pc *probeCtx) {
	s := stats.NewSketch()
	s.Add(1)
	pc.timed("loop", func() {
		for i := 0; i < pc.n; i++ {
			s.Add(float64(i%100000 + 1))
		}
	})
	if s.N() != pc.n+1 {
		pc.fail("sketch holds %d samples", s.N())
	}
}

// probeExperimentsRender times report rendering alone: E4 computes the
// shared single-query campaign first, so E3, E5 and E6 only aggregate
// and format.
func probeExperimentsRender(pc *probeCtx) {
	cfg := experiments.Default()
	cfg.Resolvers = 24
	cfg.Parallelism = 1
	r := experiments.NewRunner(cfg)
	run := func(id string) {
		e, _ := experiments.ByID(id)
		if out, err := e.Run(r); err != nil || out == "" {
			pc.fail("%s: empty report: %v", id, err)
		}
	}
	pc.setup("experiments.E4", func() { run("E4") })
	pc.timed("loop", func() {
		for i := 0; i < pc.n && pc.err == nil; i++ {
			run("E3")
			run("E5")
			run("E6")
		}
	})
}

// probes is the circuit, in layer order from the kernel up.
var probes = []probe{
	{"sim.switch", 600_000, probeSimSwitch},
	{"sim.timer_churn", 32_000_000, probeSimTimerChurn},
	{"sim.queue_handoff", 650_000, probeSimQueueHandoff},
	{"sim.world_cycle", 17_000, probeSimWorldCycle},
	{"netem.send", 230_000, probeNetemSend},
	{"netem.send_policy", 230_000, probeNetemSendPolicy},
	{"netem.send_queued", 230_000, probeNetemSendQueued},
	{"bytepool.lease", 30_000_000, probeBytepoolLease},
	{"tlsmini.handshake_full", 9_000, probeTLSFull},
	{"tlsmini.handshake_resumed", 10_000, probeTLSResumed},
	{"tcpsim.connect", 13_000, probeTCPConnect},
	{"tcpsim.bulk_1m", 65, probeTCPBulk},
	{"quic.handshake_1rtt", 3_500, probeQUIC1RTT},
	{"quic.handshake_0rtt", 3_000, probeQUIC0RTT},
	{"quic.stream_echo", 20_000, probeQUICStreamEcho},
	{"h2.roundtrip", 95_000, probeH2RoundTrip},
	{"h3.roundtrip", 16_000, probeH3RoundTrip},
	{"dnsmsg.encode", 850_000, probeDNSEncode},
	{"dnsmsg.decode", 950_000, probeDNSDecode},
	{"cache.hit", 10_500_000, probeCacheHit},
	{"cache.miss_put", 1_300_000, probeCacheMissPut},
	{"cache.stale", 11_000_000, probeCacheStale},
	{"simnet.dgram_echo", 230_000, probeSimnetDgramEcho},
	{"simnet.timer", 32_000_000, probeSimnetTimer},
	{"dox.cold.udp", 45_000, doxCold(dox.DoUDP)},
	{"dox.cold.tcp", 17_000, doxCold(dox.DoTCP)},
	{"dox.cold.dot", 3_700, doxCold(dox.DoT)},
	{"dox.cold.doh", 2_600, doxCold(dox.DoH)},
	{"dox.cold.doq", 3_000, doxCold(dox.DoQ)},
	{"dox.cold.doh3", 2_600, doxCold(dox.DoH3)},
	{"dox.warm.udp", 62_000, doxWarm(dox.DoUDP)},
	{"dox.warm.dot", 33_000, doxWarm(dox.DoT)},
	{"dox.warm.doh", 17_500, doxWarm(dox.DoH)},
	{"dox.warm.doq", 22_000, doxWarm(dox.DoQ)},
	{"dox.warm.doh3", 14_000, doxWarm(dox.DoH3)},
	{"racing.race_open", 2_500, probeRacingOpen},
	{"dnsproxy.hit", 90_000, probeProxyHit},
	{"dnsproxy.forward", 39_000, probeProxyForward},
	{"browser.load_small", 28_000, browserLoad(false)},
	{"browser.load_large", 2_600, browserLoad(true)},
	{"resolver.blueprint", 1_000, probeResolverBlueprint},
	{"resolver.instantiate", 1_500, probeResolverInstantiate},
	{"scan.funnel", 16, probeScanFunnel},
	{"campaign.shard", 50_000_000, probeCampaignShard},
	{"stats.sketch_add", 19_000_000, probeSketchAdd},
	{"experiments.render", 900, probeExperimentsRender},
}

// zeroAllocProbes are the paths the tree already pins at zero
// allocations per operation (sim/kernel_test.go, the bytepool and
// sketch benchmarks); the circuit must agree.
var zeroAllocProbes = []string{
	"sim.switch", "sim.timer_churn", "sim.queue_handoff", "bytepool.lease", "stats.sketch_add",
}

func probeMetricNames() []string {
	var names []string
	for _, p := range probes {
		names = append(names, p.name+".ns", p.name+".allocs")
	}
	return names
}
