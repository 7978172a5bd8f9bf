// Package simnet adapts the deterministic virtual-time stack
// (internal/sim, internal/netem, internal/tcpsim, internal/tlsmini,
// internal/quic) to the netapi backend seam.
//
// The adapter is a strict pass-through: every seam call maps onto
// exactly the kernel or emulator call the protocol clients made before
// the seam existed — same socket dials in the same order (so ephemeral
// port allocation is unchanged), same queue names, same wake sequences,
// same random draws. That invariant is what proves the backend refactor
// is behavior-preserving: the committed experiment reports are
// byte-identical against a pre-seam tree.
//
// Beyond the Backend interface, simnet provides the sim-only
// capabilities (QUIC dial and listen) that internal/dox discovers by
// structural assertion; livenet has no equivalents, which is why DoQ,
// DoH3 — and the sim TLS stack behind DoH — are sim-only transports.
package simnet

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/bytepool"
	"repro/internal/netapi"
	"repro/internal/netem"
	"repro/internal/quic"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tlsmini"
)

// Backend binds the netapi seam to one netem host. The random stream is
// supplied by the caller (campaigns derive it from the campaign seed),
// not taken from the World, so existing draw sequences are preserved.
type Backend struct {
	host *netem.Host
	w    *sim.World
	rng  *rand.Rand
}

// New returns a backend for host drawing randomness from rng.
func New(host *netem.Host, rng *rand.Rand) *Backend {
	return &Backend{host: host, w: host.World(), rng: rng}
}

// Host exposes the underlying netem host for sim-side test plumbing.
func (b *Backend) Host() *netem.Host { return b.host }

// NewRuntime adapts a bare World — no netem host attached — to
// netapi.Runtime, for tests that drive protocol engines over in-memory
// pipes. Socket methods on the result panic; only the Runtime surface
// is usable.
func NewRuntime(w *sim.World, rng *rand.Rand) *Backend {
	return &Backend{w: w, rng: rng}
}

// --- Runtime ---

func (b *Backend) Now() time.Duration           { return b.w.Now() }
func (b *Backend) Sleep(d time.Duration)        { b.w.Sleep(d) }
func (b *Backend) Go(fn func())                 { b.w.Go(fn) }
func (b *Backend) GoCall(fn func(any), arg any) { b.w.GoCall(fn, arg) }
func (b *Backend) Rand() *rand.Rand             { return b.rng }

func (b *Backend) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	return b.w.AfterFunc(d, fn)
}

// NewEvent builds the event on a sim.Future[bool] with the caller's
// name, so the underlying queue label — and with it every deadlock
// diagnostic and wake sequence — matches the pre-seam sim.Future users.
func (b *Backend) NewEvent(name string) netapi.Event {
	return (*simEvent)(sim.NewFuture[bool](b.w, name))
}

func (b *Backend) NewGroup() netapi.Group {
	return (*simGroup)(sim.NewWaitGroup(b.w))
}

// NewLock is a no-op: sim tasks are cooperatively scheduled, so a
// critical section that never parks cannot be preempted.
func (b *Backend) NewLock() sync.Locker { return nopLock{} }

type nopLock struct{}

func (nopLock) Lock()   {}
func (nopLock) Unlock() {}

// simEvent is a zero-overhead view of a sim.Future[bool]: the pointer
// conversion allocates nothing, and Complete(true) performs exactly the
// Push+Close a direct sim.Future Resolve performed.
type simEvent sim.Future[bool]

func (e *simEvent) Complete(ok bool) {
	f := (*sim.Future[bool])(e)
	if ok {
		f.Resolve(true)
	} else {
		f.Fail()
	}
}

func (e *simEvent) Wait() bool {
	v, ok := (*sim.Future[bool])(e).Wait()
	return ok && v
}

func (e *simEvent) WaitTimeout(d time.Duration) bool {
	v, ok := (*sim.Future[bool])(e).WaitTimeout(d)
	return ok && v
}

// simGroup is a zero-overhead view of a sim.WaitGroup.
type simGroup sim.WaitGroup

func (g *simGroup) Add(n int) { (*sim.WaitGroup)(g).Add(n) }
func (g *simGroup) Done()     { (*sim.WaitGroup)(g).Done() }
func (g *simGroup) Wait()     { (*sim.WaitGroup)(g).Wait() }

// --- Sockets ---

// packetConn is a zero-overhead view of a netem.Socket.
type packetConn netem.Socket

func (b *Backend) DialUDP(overhead int) (netapi.PacketConn, error) {
	return (*packetConn)(b.host.Dial(netem.ProtoUDP, overhead)), nil
}

func (b *Backend) ListenUDP(port uint16, overhead int) (netapi.PacketConn, error) {
	s, err := b.host.Listen(netem.ProtoUDP, port, overhead)
	if err != nil {
		return nil, err
	}
	return (*packetConn)(s), nil
}

func (c *packetConn) sock() *netem.Socket       { return (*netem.Socket)(c) }
func (c *packetConn) LocalAddr() netip.AddrPort { return c.sock().LocalAddr() }
func (c *packetConn) Close()                    { c.sock().Close() }
func (c *packetConn) Pool() *bytepool.Pool      { return c.sock().Pool() }

func (c *packetConn) Send(dst netip.AddrPort, payload []byte) {
	c.sock().Send(dst, payload)
}

// Handle passes the handler through to the netem socket; each datagram
// reaches recv inline, from its delivery timer.
func (c *packetConn) Handle(recv func(netapi.Packet), closed func()) {
	c.sock().Handle(func(d netem.Datagram) {
		recv(netapi.Packet{Src: d.Src, Payload: d.Payload, Reject: d.Reject})
	}, closed)
}

func (c *packetConn) Recv() (netapi.Packet, bool) {
	d, ok := c.sock().Recv()
	return netapi.Packet{Src: d.Src, Payload: d.Payload, Reject: d.Reject}, ok
}

func (c *packetConn) RecvTimeout(d time.Duration) (netapi.Packet, bool) {
	dg, ok := c.sock().RecvTimeout(d)
	return netapi.Packet{Src: dg.Src, Payload: dg.Payload, Reject: dg.Reject}, ok
}

func (c *packetConn) Snapshot() (tx, rx int) { return c.sock().Snapshot() }

// --- Streams ---

func (b *Backend) DialStream(raddr netip.AddrPort) (netapi.StreamConn, error) {
	return tcpsim.Dial(b.host, raddr)
}

// streamListener is a zero-overhead view of a tcpsim.Listener.
type streamListener tcpsim.Listener

func (b *Backend) ListenStream(port uint16) (netapi.StreamListener, error) {
	l, err := tcpsim.Listen(b.host, port)
	if err != nil {
		return nil, err
	}
	return (*streamListener)(l), nil
}

func (l *streamListener) Accept() (netapi.StreamConn, bool) {
	c, ok := (*tcpsim.Listener)(l).Accept()
	if !ok {
		return nil, false
	}
	return c, true
}

func (l *streamListener) Addr() netip.AddrPort { return (*tcpsim.Listener)(l).Addr() }
func (l *streamListener) Close()               { (*tcpsim.Listener)(l).Close() }

// --- TLS ---

// tlsConn pairs a sim TLS session with its transport for byte
// accounting.
type tlsConn struct {
	*tlsmini.Conn
	tcp *tcpsim.Conn
}

func (c *tlsConn) Stats() (tx, rx int) { return c.tcp.Stats() }

// Abort kills the transport under the TLS session without a close
// exchange, failing in-flight reads immediately (asserted by dox when
// an access-network change strands the 4-tuple).
func (c *tlsConn) Abort()                     { c.tcp.Abort() }
func (c *tlsConn) RemoteAddr() netip.AddrPort { return c.tcp.RemoteAddr() }
func (c *tlsConn) TLSVersion() tlsmini.Version {
	return c.Conn.Engine().NegotiatedVersion()
}
func (c *tlsConn) Resumed() bool { return c.Conn.Engine().UsedResumption() }

// DialTLS dials TCP and completes the sim TLS handshake, mirroring the
// pre-seam client sequence exactly (dial, NewConn, Handshake, close the
// transport on failure).
func (b *Backend) DialTLS(raddr netip.AddrPort, cfg netapi.TLSConfig) (netapi.TLSConn, error) {
	tcp, err := tcpsim.Dial(b.host, raddr)
	if err != nil {
		return nil, err
	}
	conn := tlsmini.NewConn(tcp, tlsmini.Config{
		IsClient:     true,
		ServerName:   cfg.ServerName,
		ALPN:         cfg.ALPN,
		SessionCache: cfg.SessionCache,
		Rand:         b.rng,
		Now:          b.w.Now,
	})
	if err := conn.Handshake(); err != nil {
		tcp.Close()
		return nil, err
	}
	return &tlsConn{Conn: conn, tcp: tcp}, nil
}

// --- Link model ---

func (b *Backend) AccessDelay() time.Duration {
	prof, ok := b.host.Network().AccessLink(b.host.Addr())
	if !ok {
		return 0
	}
	return prof.ExtraDelay
}

func (b *Backend) OccupyDown(size int) time.Duration {
	return b.host.Network().OccupyDown(b.host.Addr(), size)
}

// --- Sim-only capabilities (structural, asserted by internal/dox) ---

// DialQUIC dials a QUIC connection; early selects the 0-RTT dial.
func (b *Backend) DialQUIC(raddr netip.AddrPort, cfg quic.Config, early bool) (*quic.Conn, error) {
	if early {
		return quic.DialEarly(b.host, raddr, cfg)
	}
	return quic.Dial(b.host, raddr, cfg)
}

// ListenQUIC starts a QUIC listener on port.
func (b *Backend) ListenQUIC(port uint16, cfg quic.Config) (*quic.Listener, error) {
	return quic.Listen(b.host, port, cfg)
}
