// Package livenet binds the netapi backend seam to the operating
// system: real UDP and TCP sockets via package net, TLS via crypto/tls,
// goroutines for tasks and the wall clock for time. The same dox
// clients that run deterministic campaigns on simnet resolve against
// live Do53 and DoT servers through this backend, and DoH rides a
// net/http round-trip capability; DoQ and DoH3 remain sim-only because
// the QUIC stack exists only on the sim side.
//
// Determinism boundary: livenet is intentionally outside the
// reproducibility envelope. Its clock is wall time, its scheduling is
// the Go runtime's, and nothing it measures lands in committed
// experiment reports. The simlint nowallclock rule exempts this
// package for exactly that reason.
//
// Pool discipline: bytepool.Pool is unlocked (a sim single-task
// assumption), so each PacketConn owns a private pool that only the
// conn's receiving goroutine touches — the read leases from it and the
// receive handler Puts leases back on the same goroutine. Send never
// recycles the payload; it is dropped to the garbage collector.
package livenet

import (
	"bytes"
	"crypto/tls"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytepool"
	"repro/internal/netapi"
	"repro/internal/tlsmini"
)

// Backend is a live-network netapi backend. The zero value is not
// usable; construct with New.
type Backend struct {
	epoch time.Time
	rng   *rand.Rand
	// tlsSessions resumes TLS sessions across DialTLS calls, mirroring
	// the role tlsmini.SessionCache plays on the sim backend. It is only
	// consulted when the dial's TLSConfig carries a session cache.
	tlsSessions tls.ClientSessionCache
}

// New returns a live backend seeded with seed. The monotonic clock
// starts at zero at the call.
func New(seed int64) *Backend {
	return &Backend{
		epoch:       time.Now(),
		rng:         rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)}),
		tlsSessions: tls.NewLRUClientSessionCache(64),
	}
}

// lockedSource makes the backend's shared rand stream safe for the
// many goroutines a live run schedules (rand.New sources are not).
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// --- Runtime ---

func (b *Backend) Now() time.Duration           { return time.Since(b.epoch) }
func (b *Backend) Sleep(d time.Duration)        { time.Sleep(d) }
func (b *Backend) Go(fn func())                 { go fn() }
func (b *Backend) GoCall(fn func(any), arg any) { go fn(arg) }
func (b *Backend) Rand() *rand.Rand             { return b.rng }

func (b *Backend) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	return time.AfterFunc(d, fn)
}

func (b *Backend) NewEvent(name string) netapi.Event {
	return &chanEvent{ch: make(chan struct{})}
}

func (b *Backend) NewGroup() netapi.Group { return &sync.WaitGroup{} }

func (b *Backend) NewLock() sync.Locker { return &sync.Mutex{} }

// chanEvent is a one-shot completion on a closed channel. The ok write
// happens before the close, so waiters observe it (channel close is a
// release/acquire pair).
type chanEvent struct {
	ch   chan struct{}
	once sync.Once
	ok   bool
}

func (e *chanEvent) Complete(ok bool) {
	e.once.Do(func() {
		e.ok = ok
		close(e.ch)
	})
}

func (e *chanEvent) Wait() bool {
	<-e.ch
	return e.ok
}

func (e *chanEvent) WaitTimeout(d time.Duration) bool {
	select {
	case <-e.ch:
		return e.ok
	case <-time.After(d):
		return false
	}
}

// --- PacketConn ---

type packetConn struct {
	conn *net.UDPConn
	// overhead is the modeled per-datagram framing (UDP+IP headers), kept
	// so Snapshot matches the sim backend's byte accounting convention.
	overhead int
	pool     *bytepool.Pool
	tx, rx   atomic.Int64
	closed   atomic.Bool
}

func (b *Backend) DialUDP(overhead int) (netapi.PacketConn, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, err
	}
	return &packetConn{conn: c, overhead: overhead, pool: &bytepool.Pool{}}, nil
}

func (b *Backend) ListenUDP(port uint16, overhead int) (netapi.PacketConn, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4zero, Port: int(port)})
	if err != nil {
		return nil, err
	}
	return &packetConn{conn: c, overhead: overhead, pool: &bytepool.Pool{}}, nil
}

func (c *packetConn) LocalAddr() netip.AddrPort {
	return c.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func (c *packetConn) Pool() *bytepool.Pool { return c.pool }

func (c *packetConn) Send(dst netip.AddrPort, payload []byte) {
	if n, err := c.conn.WriteToUDPAddrPort(payload, dst); err == nil {
		c.tx.Add(int64(n + c.overhead))
	}
	// payload is owned by the conn now; it goes to the GC, not the pool,
	// because the pool belongs to the receive goroutine.
}

// Handle runs the conn's read loop on a goroutine of its own, calling
// recv for each datagram until the conn is closed, then closed.
func (c *packetConn) Handle(recv func(netapi.Packet), closed func()) {
	go func() {
		for {
			p, ok := c.Recv()
			if !ok || c.closed.Load() {
				c.pool.Put(p.Payload)
				break
			}
			recv(p)
		}
		if closed != nil {
			closed()
		}
	}()
}

func (c *packetConn) Recv() (netapi.Packet, bool) {
	buf := c.pool.Get(2048)
	buf = buf[:cap(buf)]
	n, src, err := c.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		c.pool.Put(buf[:0])
		return netapi.Packet{}, false
	}
	c.rx.Add(int64(n + c.overhead))
	return netapi.Packet{Src: src, Payload: buf[:n]}, true
}

func (c *packetConn) RecvTimeout(d time.Duration) (netapi.Packet, bool) {
	c.conn.SetReadDeadline(time.Now().Add(d))
	p, ok := c.Recv()
	c.conn.SetReadDeadline(time.Time{})
	return p, ok
}

func (c *packetConn) Close() {
	if c.closed.CompareAndSwap(false, true) {
		c.conn.Close()
	}
}

func (c *packetConn) Snapshot() (tx, rx int) {
	return int(c.tx.Load()), int(c.rx.Load())
}

// --- StreamConn ---

// streamConn adapts a net.Conn to the chunked read surface, counting
// wire bytes for Stats. For TLS sessions the counters live on the
// underlying TCP conn so Stats includes handshake and record framing,
// matching the sim clients' accounting.
type streamConn struct {
	conn   net.Conn
	remote netip.AddrPort
	tx, rx *atomic.Int64
	buf    []byte
}

func newStreamConn(conn net.Conn, remote netip.AddrPort) *streamConn {
	return &streamConn{
		conn: conn, remote: remote,
		tx: new(atomic.Int64), rx: new(atomic.Int64),
		buf: make([]byte, 32*1024),
	}
}

func (c *streamConn) Write(p []byte) error {
	n, err := c.conn.Write(p)
	c.tx.Add(int64(n))
	return err
}

func (c *streamConn) Read() ([]byte, bool) {
	n, err := c.conn.Read(c.buf)
	if n > 0 {
		c.rx.Add(int64(n))
		return append([]byte(nil), c.buf[:n]...), true
	}
	_ = err
	return nil, false
}

func (c *streamConn) Close()                     { c.conn.Close() }
func (c *streamConn) RemoteAddr() netip.AddrPort { return c.remote }
func (c *streamConn) Stats() (tx, rx int) {
	return int(c.tx.Load()), int(c.rx.Load())
}

func (b *Backend) DialStream(raddr netip.AddrPort) (netapi.StreamConn, error) {
	conn, err := net.DialTimeout("tcp", raddr.String(), 10*time.Second)
	if err != nil {
		return nil, err
	}
	return newStreamConn(conn, raddr), nil
}

type streamListener struct {
	l *net.TCPListener
}

func (b *Backend) ListenStream(port uint16) (netapi.StreamListener, error) {
	l, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4zero, Port: int(port)})
	if err != nil {
		return nil, err
	}
	return &streamListener{l: l}, nil
}

func (l *streamListener) Accept() (netapi.StreamConn, bool) {
	conn, err := l.l.AcceptTCP()
	if err != nil {
		return nil, false
	}
	remote, _ := netip.ParseAddrPort(conn.RemoteAddr().String())
	return newStreamConn(conn, remote), true
}

func (l *streamListener) Addr() netip.AddrPort {
	return l.l.Addr().(*net.TCPAddr).AddrPort()
}

func (l *streamListener) Close() { l.l.Close() }

// --- TLS ---

// countingConn counts raw transport bytes under a crypto/tls session,
// so TLSConn.Stats covers handshake flights and record overhead.
type countingConn struct {
	net.Conn
	tx, rx *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

type tlsConn struct {
	*streamConn
	tls *tls.Conn
}

func (c *tlsConn) Write(p []byte) error {
	_, err := c.tls.Write(p)
	return err
}

func (c *tlsConn) Read() ([]byte, bool) {
	n, err := c.tls.Read(c.buf)
	if n > 0 {
		return append([]byte(nil), c.buf[:n]...), true
	}
	_ = err
	return nil, false
}

func (c *tlsConn) Close() { c.tls.Close() }

// TLSVersion reports the negotiated version as a tlsmini.Version; the
// wire constants are identical (0x0303, 0x0304), so the cast is exact.
func (c *tlsConn) TLSVersion() tlsmini.Version {
	return tlsmini.Version(c.tls.ConnectionState().Version)
}

func (c *tlsConn) Resumed() bool { return c.tls.ConnectionState().DidResume }

func (b *Backend) DialTLS(raddr netip.AddrPort, cfg netapi.TLSConfig) (netapi.TLSConn, error) {
	raw, err := net.DialTimeout("tcp", raddr.String(), 10*time.Second)
	if err != nil {
		return nil, err
	}
	sc := newStreamConn(raw, raddr)
	counting := &countingConn{Conn: raw, tx: sc.tx, rx: sc.rx}
	tcfg := &tls.Config{
		ServerName:         cfg.ServerName,
		NextProtos:         cfg.ALPN,
		InsecureSkipVerify: cfg.InsecureSkipVerify,
	}
	if cfg.SessionCache != nil {
		// The seam's cache type is tlsmini's; crypto/tls cannot share its
		// entries, so a non-nil cache means "resumption wanted" and the
		// backend supplies its own live session store.
		tcfg.ClientSessionCache = b.tlsSessions
	}
	conn := tls.Client(counting, tcfg)
	if err := conn.Handshake(); err != nil {
		raw.Close()
		return nil, err
	}
	return &tlsConn{streamConn: sc, tls: conn}, nil
}

// --- Link model ---

// AccessDelay is zero: a live vantage's access link is part of the path
// being measured, not a modeled add-on.
func (b *Backend) AccessDelay() time.Duration { return 0 }

// OccupyDown serializes analytic downloads at the default rate; live
// runs have no shared emulated downlink to occupy.
func (b *Backend) OccupyDown(size int) time.Duration {
	return time.Duration(float64(size) / netapi.DefaultDownloadRate * float64(time.Second))
}

// --- DoH capability ---

// RoundTripHTTP performs one DoH POST over net/http, the structural
// capability internal/dox asserts for its live DoH path. The request
// dials raddr directly while presenting serverName for SNI and
// verification, mirroring how the measurement tool targets a resolver
// by address.
func (b *Backend) RoundTripHTTP(serverName string, raddr netip.AddrPort, path string, insecure bool, body []byte) (int, []byte, error) {
	transport := &http.Transport{
		DialContext: (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		TLSClientConfig: &tls.Config{
			ServerName:         serverName,
			InsecureSkipVerify: insecure,
		},
		ForceAttemptHTTP2: true,
	}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	defer transport.CloseIdleConnections()
	url := fmt.Sprintf("https://%s%s", raddr, path)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/dns-message")
	req.Header.Set("Accept", "application/dns-message")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, respBody, nil
}
