package dox

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/h2"
	"repro/internal/h3"
	"repro/internal/netapi"
	"repro/internal/quic"
	"repro/internal/tlsmini"
)

// Client is a DNS transport session against one resolver.
type Client interface {
	// Query performs one DNS exchange.
	Query(q *dnsmsg.Message) (*dnsmsg.Message, error)
	// Metrics returns the session's measurements (updated by Query).
	Metrics() *Metrics
	// InFlight reports queries currently awaiting a response.
	InFlight() int
	// Close releases the session.
	Close()
}

// Migrator is the optional interface of clients whose transport can
// follow the stub to a new access network without re-handshaking. Only
// the QUIC transports (DoQ, DoH3) implement it: QUIC validates the new
// path with PATH_CHALLENGE and keeps the connection, while TCP-based
// sessions are bound to the old 4-tuple and must reconnect.
type Migrator interface {
	// Migrate moves the session to a fresh local endpoint and blocks
	// until the server validates the new path (about one RTT).
	Migrate() error
}

// Aborter is the optional interface of clients whose session can be
// torn down abortively, failing in-flight queries at once. The
// TCP-based transports (DoT, DoH) implement it: when the access network
// changes the old 4-tuple is dead, the peer's in-flight bytes can never
// arrive, and waiting out a graceful close would pretend otherwise.
type Aborter interface {
	Abort()
}

// Options configures a client session.
type Options struct {
	// Backend supplies sockets, TLS, timers, clock and randomness. Use
	// netapi/simnet inside a simulation and netapi/livenet for real
	// resolvers.
	Backend  netapi.Backend
	Resolver netip.Addr

	// Ports default to the standard ones; DoH3 always dials PortDoH3.
	UDPPort, TCPPort, DoTPort, DoHPort, DoQPort uint16

	ServerName     string
	SessionCache   *tlsmini.SessionCache
	OfferEarlyData bool
	Token          []byte   // QUIC address-validation token
	QUICVersions   []uint32 // preference order
	DoQALPNs       []string // offered DoQ versions; default AllDoQALPNs

	// InsecureTLS disables certificate verification on backends that
	// verify (livenet); the sim backend's certificates are modeled.
	InsecureTLS bool

	// UDPTimeout is the stub's initial application-layer retransmission
	// timeout (resolv.conf default: 5 seconds). UDPRetries caps
	// retransmissions; 0 means the default, 2, so there is no way to ask
	// for none. UDPBackoff multiplies the per-attempt timeout after each
	// unanswered attempt (resolv.conf-style exponential backoff). The
	// default backoff of 1 keeps the classic flat schedule — a lossy
	// first datagram costs the full UDPTimeout — while a
	// resilience-minded stub sets a short UDPTimeout with UDPBackoff 2
	// and bounds the total wait without giving up retries.
	UDPTimeout time.Duration
	UDPRetries int
	UDPBackoff float64
}

// setDefault replaces a zero *v with def.
func setDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

func (o *Options) withDefaults() Options {
	v := *o
	setDefault(&v.UDPPort, PortDoUDP)
	setDefault(&v.TCPPort, PortDoTCP)
	setDefault(&v.DoTPort, PortDoT)
	setDefault(&v.DoHPort, PortDoH)
	setDefault(&v.DoQPort, PortDoQ)
	setDefault(&v.UDPTimeout, 5*time.Second)
	setDefault(&v.UDPRetries, 2)
	setDefault(&v.UDPBackoff, 1)
	if len(v.DoQALPNs) == 0 {
		v.DoQALPNs = AllDoQALPNs()
	}
	if len(v.QUICVersions) == 0 {
		v.QUICVersions = quic.AllVersions()
	}
	if v.ServerName == "" {
		v.ServerName = v.Resolver.String()
	}
	return v
}

func (o *Options) tlsConfig(alpn string) netapi.TLSConfig {
	return netapi.TLSConfig{
		ServerName:         o.ServerName,
		ALPN:               []string{alpn},
		SessionCache:       o.SessionCache,
		InsecureSkipVerify: o.InsecureTLS,
	}
}

// quicDialer is the capability a backend provides when it can carry
// QUIC. Only the sim backend has it: the QUIC stack is built on the
// simulated network, so DoQ and DoH3 are sim-only transports.
type quicDialer interface {
	DialQUIC(raddr netip.AddrPort, cfg quic.Config, early bool) (*quic.Conn, error)
}

// httpRoundTripper is the capability a backend provides when DoH should
// run over a real HTTP stack (livenet: net/http with its HTTP/2
// support) instead of the in-repo h2 layer over the backend's TLS.
type httpRoundTripper interface {
	RoundTripHTTP(serverName string, raddr netip.AddrPort, path string, insecure bool, body []byte) (status int, respBody []byte, err error)
}

// Connect establishes a client session for the given transport. For
// connection-oriented transports this blocks for the handshake.
func Connect(proto Protocol, opts Options) (Client, error) {
	o := opts.withDefaults()
	switch proto {
	case DoUDP:
		return newUDPClient(o)
	case DoTCP:
		return newTCPClient(o)
	case DoT:
		return newDoTClient(o)
	case DoH:
		return newDoHClient(o)
	case DoQ, DoH3:
		return newQUICClient(o, proto)
	}
	return nil, fmt.Errorf("dox: unknown protocol %v", proto)
}

// --- DoUDP ---

type udpClient struct {
	session
	demux
	sock  netapi.PacketConn
	raddr netip.AddrPort
	// refused is set (under mu) when the network actively rejects the
	// resolver port (ICMP-style unreachable from a middlebox policy):
	// further retransmissions are pointless, so Query fails fast.
	refused bool
}

func newUDPClient(o Options) (*udpClient, error) {
	sock, err := o.Backend.DialUDP(8)
	if err != nil {
		return nil, err
	}
	c := &udpClient{demux: newDemux(o.Backend), sock: sock, raddr: netip.AddrPortFrom(o.Resolver, o.UDPPort)}
	c.session = session{o: o, t: c}
	sock.Handle(c.recv, c.failAll)
	return c, nil
}

// recv is the socket's receive handler: it resolves the query each
// response answers, and fails every query when the network rejects the
// resolver port.
func (c *udpClient) recv(d netapi.Packet) {
	if d.Reject {
		c.mu.Lock()
		c.refused = true
		c.mu.Unlock()
		c.failAll()
		return
	}
	resp, err := dnsmsg.Decode(d.Payload)
	c.sock.Pool().Put(d.Payload) // Decode copies everything it keeps
	if err == nil {
		c.deliver(resp)
	}
}

func (c *udpClient) exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	tx0, rx0 := c.sock.Snapshot()
	resp, err := c.retransmit(q)
	tx, rx := c.sock.Snapshot()
	c.m.QueryTx, c.m.QueryRx = tx-tx0, rx-rx0
	return resp, err
}

// retransmit sends q until it is answered, refused, or out of retries.
func (c *udpClient) retransmit(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	msg := q.Encode()
	timeout := c.o.UDPTimeout
	for attempt := 0; attempt <= c.o.UDPRetries; attempt++ {
		f := c.expect(c.o.Backend, q.ID, "doudp-query")
		c.sock.Send(c.raddr, append([]byte(nil), msg...))
		if resp, ok := f.WaitTimeout(timeout); ok {
			return resp, nil
		}
		c.mu.Lock()
		delete(c.pending, q.ID)
		refused := c.refused
		c.mu.Unlock()
		if refused {
			return nil, errors.New("dox: DoUDP refused (port unreachable)")
		}
		timeout = time.Duration(float64(timeout) * c.o.UDPBackoff)
	}
	return nil, errors.New("dox: DoUDP query timed out")
}

func (c *udpClient) shutdown() { c.sock.Close() }

// --- DoTCP ---

// tcpClient carries one query per connection: no resolver supports
// edns-tcp-keepalive (paper §3), so the first query runs on the
// connection Connect opened and every later one dials its own (2 RTT
// per query).
type tcpClient struct {
	session
	raddr netip.AddrPort
	conn  netapi.StreamConn // open connection, nil once its query is answered
	used  bool              // the Connect-time connection has carried its query
}

func newTCPClient(o Options) (*tcpClient, error) {
	raddr := netip.AddrPortFrom(o.Resolver, o.TCPPort)
	start := o.Backend.Now()
	conn, err := o.Backend.DialStream(raddr)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{raddr: raddr, conn: conn}
	c.session = session{o: o, t: c}
	c.m.HandshakeTime = o.Backend.Now() - start
	// The SYN-ACK may still be counted in flight; snapshot what we have.
	c.m.HandshakeTx, c.m.HandshakeRx = conn.Stats()
	return c, nil
}

func (c *tcpClient) exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	conn := c.conn
	if c.used {
		var err error
		if conn, err = c.o.Backend.DialStream(c.raddr); err != nil {
			return nil, err
		}
		c.conn = conn
	}
	c.used = true
	tx0, rx0 := conn.Stats()
	if err := conn.Write(appendPrefixed(q)); err != nil {
		return nil, err
	}
	r := prefixReader{s: conn}
	resp, err := r.message()
	tx, rx := conn.Stats()
	c.m.QueryTx, c.m.QueryRx = tx-tx0, rx-rx0
	if err != nil {
		return nil, err
	}
	conn.Close()
	c.conn = nil
	return resp, nil
}

func (c *tcpClient) shutdown() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// --- DoT ---

type dotClient struct {
	session
	demux
	tls netapi.TLSConn
}

func newDoTClient(o Options) (*dotClient, error) {
	start := o.Backend.Now()
	tls, err := o.Backend.DialTLS(netip.AddrPortFrom(o.Resolver, o.DoTPort), o.tlsConfig("dot"))
	if err != nil {
		return nil, err
	}
	c := &dotClient{demux: newDemux(o.Backend), tls: tls}
	c.session = session{o: o, t: c}
	c.recordTLS(start, tls)
	o.Backend.Go(c.readLoop)
	return c, nil
}

func (c *dotClient) readLoop() {
	r := prefixReader{s: c.tls}
	for {
		resp, err := r.message()
		if err != nil {
			c.failAll()
			return
		}
		c.deliver(resp)
	}
}

func (c *dotClient) exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	tx0, rx0 := c.tls.Stats()
	f := c.expect(c.o.Backend, q.ID, "dot-query")
	if err := c.tls.Write(appendPrefixed(q)); err != nil {
		return nil, err
	}
	resp, ok := f.Wait()
	tx, rx := c.tls.Stats()
	c.m.QueryTx, c.m.QueryRx = tx-tx0, rx-rx0
	if !ok {
		return nil, errors.New("dox: DoT query failed")
	}
	return resp, nil
}

// Abort kills the session without a close exchange (Aborter); pending
// queries fail through the read loop.
func (c *dotClient) Abort()    { c.abort(c.tls) }
func (c *dotClient) shutdown() { c.tls.Close() }

// --- DoH ---

type dohClient struct {
	session
	h2c   *h2.ClientConn
	tls   netapi.TLSConn   // h2's transport: wire counts, abortive teardown
	hrt   httpRoundTripper // real-HTTP path (livenet); nil on sim
	raddr netip.AddrPort
}

func newDoHClient(o Options) (*dohClient, error) {
	c := &dohClient{raddr: netip.AddrPortFrom(o.Resolver, o.DoHPort)}
	c.session = session{o: o, t: c}
	if hrt, ok := o.Backend.(httpRoundTripper); ok {
		// Backend brings its own HTTP stack; connections are managed (and
		// reused) inside it, so there is no per-session handshake to time.
		c.hrt = hrt
		return c, nil
	}
	start := o.Backend.Now()
	tls, err := o.Backend.DialTLS(c.raddr, o.tlsConfig("h2"))
	if err != nil {
		return nil, err
	}
	if c.h2c, err = h2.NewClientConn(o.Backend, tls); err != nil {
		return nil, err
	}
	c.tls = tls
	c.recordTLS(start, tls) // the HTTP/2 preface and SETTINGS count as setup
	return c, nil
}

func (c *dohClient) exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	wire := q.Encode()
	if c.hrt != nil {
		status, body, err := c.hrt.RoundTripHTTP(c.o.ServerName, c.raddr, "/dns-query", c.o.InsecureTLS, wire)
		if err != nil {
			return nil, err
		}
		return httpAnswer(DoH, strconv.Itoa(status), body)
	}
	var hs [8]h2.Header
	tx0, rx0 := c.tls.Stats()
	resp, err := c.h2c.RoundTrip(dohRequest(&hs, c.o.ServerName, len(wire)), wire)
	tx, rx := c.tls.Stats()
	c.m.QueryTx, c.m.QueryRx = tx-tx0, rx-rx0
	if err != nil {
		return nil, err
	}
	return httpAnswer(DoH, resp.Status(), resp.Body)
}

// Abort kills the transport under the HTTP/2 session (Aborter); the h2
// read loop fails pending round trips when its stream breaks.
func (c *dohClient) Abort() { c.abort(c.tls) }

func (c *dohClient) shutdown() {
	if c.h2c != nil {
		c.h2c.Close()
	}
}

// header is the shape h2.Header and h3.Header share, so DoH and DoH3
// build their header blocks from one literal.
type header interface {
	~struct{ Name, Value string }
}

// dohRequest fills hs with the header block of an RFC 8484 POST carrying
// an n-byte query; the caller's array keeps the block off the heap.
func dohRequest[H header](hs *[8]H, authority string, n int) []H {
	*hs = [8]H{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: authority},
		{Name: ":path", Value: "/dns-query"},
		{Name: "accept", Value: "application/dns-message"},
		{Name: "content-type", Value: "application/dns-message"},
		{Name: "content-length", Value: strconv.Itoa(n)},
		{Name: "user-agent", Value: "repro-dnsperf/1.0"},
	}
	return hs[:]
}

// httpAnswer decodes a DoH or DoH3 response body once its status is 200.
func httpAnswer(proto Protocol, status string, body []byte) (*dnsmsg.Message, error) {
	if status != "200" {
		return nil, fmt.Errorf("dox: %v status %s", proto, status)
	}
	return dnsmsg.Decode(body)
}

// --- DoQ and DoH3 ---

// quicClient serves both QUIC transports: DoQ puts each query on its own
// stream (RFC 9250), DoH3 (h3c set) sends it as an HTTP/3 request.
type quicClient struct {
	session
	conn *quic.Conn
	h3c  *h3.ClientConn
}

// newQUICClient dials QUIC and, for DoH3, sets the control stream up. On
// an early (0-RTT) dial the first query — and DoH3's SETTINGS — ride in
// 0-RTT packets: DoQ frames per the offered ALPN and DoH3's framing
// depends only on the QPACK static table, so neither needs negotiated
// server state to serialize early data.
func newQUICClient(o Options, proto Protocol) (*quicClient, error) {
	qd, ok := o.Backend.(quicDialer)
	if !ok {
		return nil, fmt.Errorf("dox: %v requires a QUIC-capable backend (sim only)", proto)
	}
	port, alpns := o.DoQPort, o.DoQALPNs
	if proto == DoH3 {
		port, alpns = PortDoH3, []string{DoH3ALPN}
	}
	start := o.Backend.Now()
	conn, err := qd.DialQUIC(netip.AddrPortFrom(o.Resolver, port), quic.Config{
		ALPN:           alpns,
		ServerName:     o.ServerName,
		SessionCache:   o.SessionCache,
		OfferEarlyData: o.OfferEarlyData,
		Token:          o.Token,
		Versions:       o.QUICVersions,
		Rand:           o.Backend.Rand(),
		Now:            o.Backend.Now,
	}, o.OfferEarlyData)
	if err != nil {
		return nil, err
	}
	c := &quicClient{conn: conn}
	c.session = session{o: o, t: c}
	settingsTx := 0
	if proto == DoH3 {
		tx0, _ := conn.Stats()
		c.h3c = h3.NewClientConn(o.Backend, conn)
		tx, _ := conn.Stats()
		settingsTx = tx - tx0
	}
	if !o.OfferEarlyData {
		c.m.HandshakeTime = o.Backend.Now() - start
		c.recordHandshake()
		// Like DoH's accounting (the HTTP/2 preface and SETTINGS count
		// as session setup, not query bytes), fold exactly the DoH3
		// control-stream SETTINGS just sent into the handshake tally —
		// and nothing else, so the C->R/R->C rows stay comparable with
		// DoQ's handshake-completion snapshot.
		c.m.HandshakeTx += settingsTx
	}
	return c, nil
}

func (c *quicClient) recordHandshake() {
	c.m.HandshakeTx, c.m.HandshakeRx = c.conn.HandshakeStats()
	c.m.TLSVersion = c.conn.TLSVersion()
	c.m.QUICVersion = c.conn.Version()
	c.m.DoQALPN = c.conn.ALPN()
	c.m.UsedResumption = c.conn.UsedResumption()
	c.m.Used0RTT = c.conn.EarlyDataAccepted()
	c.m.UsedVN = c.conn.VersionNegotiated()
	c.m.UsedToken = len(c.o.Token) > 0
}

func (c *quicClient) exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	tx0, rx0 := c.conn.Stats()
	var resp *dnsmsg.Message
	var err error
	if c.h3c != nil {
		var hs [8]h3.Header
		var r *h3.Response
		wire := q.Encode()
		if r, err = c.h3c.RoundTrip(dohRequest(&hs, c.o.ServerName, len(wire)), wire); err == nil {
			resp, err = httpAnswer(DoH3, r.Status(), r.Body)
		}
	} else {
		resp, err = c.askDoQ(q)
	}
	tx, rx := c.conn.Stats()
	c.m.QueryTx, c.m.QueryRx = tx-tx0, rx-rx0
	if c.m.HandshakeTime == 0 && c.conn.HandshakeTime() > 0 {
		// An early dial: the handshake completed during this query.
		c.m.HandshakeTime = c.conn.HandshakeTime()
		c.recordHandshake()
	}
	return resp, err
}

func (c *quicClient) askDoQ(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	st := c.conn.OpenStream()
	alpn := c.conn.ALPN()
	if alpn == "" {
		// 0-RTT dial before handshake: frame per the offered preference.
		alpn = c.o.DoQALPNs[0]
	}
	st.Write(doqEncode(q, alpnUsesLengthPrefix(alpn)), true)
	data, ok := st.ReadAll()
	if !ok {
		return nil, errors.New("dox: DoQ stream failed")
	}
	return doqDecode(data, alpnUsesLengthPrefix(c.conn.ALPN()))
}

// Migrate moves the session to a new local address (Migrator).
func (c *quicClient) Migrate() error { return c.conn.Migrate() }

func (c *quicClient) shutdown() {
	if c.h3c != nil {
		c.h3c.Close()
	} else {
		c.conn.Close()
	}
}
