package dox

import (
	"errors"
	"maps"
	"net/netip"
	"slices"
	"sync"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/netapi"
)

// session is the query lifecycle every client embeds: admission (a
// closed session refuses queries), the in-flight count, the metrics,
// the TLS handshake record DoT and DoH share, and an idempotent Close.
// The per-transport part — framing, dialing, teardown — sits behind t,
// which points back at the embedding client.
type session struct {
	o        Options
	t        transport
	m        Metrics
	inFlight int
	closed   bool
}

// transport is the per-transport half of a client. exchange runs one
// admitted query and records its wire bytes in the session's
// Metrics.QueryTx/QueryRx; shutdown releases the connection once.
type transport interface {
	exchange(q *dnsmsg.Message) (*dnsmsg.Message, error)
	shutdown()
}

func (s *session) Query(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	if s.closed {
		return nil, errors.New("dox: client closed")
	}
	s.inFlight++
	defer func() { s.inFlight-- }()
	return s.t.exchange(q)
}

func (s *session) Metrics() *Metrics { return &s.m }
func (s *session) InFlight() int     { return s.inFlight }

func (s *session) Close() {
	if !s.closed {
		s.closed = true
		s.t.shutdown()
	}
}

// recordTLS records the setup of a TLS session dialed at start: its
// duration, the wire bytes exchanged so far, and what was negotiated.
func (s *session) recordTLS(start time.Duration, conn netapi.TLSConn) {
	s.m.HandshakeTime = s.o.Backend.Now() - start
	s.m.HandshakeTx, s.m.HandshakeRx = conn.Stats()
	s.m.TLSVersion = conn.TLSVersion()
	s.m.UsedResumption = conn.Resumed()
}

// abort kills the session under conn without a close exchange when the
// backend can (Aborter); the connection's reader then fails in-flight
// queries at once. Other backends close gracefully.
func (s *session) abort(conn netapi.StreamConn) {
	if a, ok := conn.(Aborter); ok {
		s.closed = true
		a.Abort()
		return
	}
	s.Close()
}

// demux matches answers to in-flight queries by message ID, for the
// transports that serve every query on one socket or stream: DoUDP from
// its receive handler, DoT from its reader task. mu guards pending
// against that reader; it is a no-op lock on the sim backend.
type demux struct {
	mu      sync.Locker
	pending map[uint16]*netapi.Future[*dnsmsg.Message]
}

func newDemux(rt netapi.Runtime) demux {
	return demux{mu: rt.NewLock(), pending: make(map[uint16]*netapi.Future[*dnsmsg.Message])}
}

// expect registers query id and returns the future its answer resolves.
func (d *demux) expect(rt netapi.Runtime, id uint16, name string) *netapi.Future[*dnsmsg.Message] {
	f := netapi.NewFuture[*dnsmsg.Message](rt, name)
	d.mu.Lock()
	d.pending[id] = f
	d.mu.Unlock()
	return f
}

// deliver hands resp to the query waiting on its ID, if any.
func (d *demux) deliver(resp *dnsmsg.Message) {
	d.mu.Lock()
	f, ok := d.pending[resp.ID]
	delete(d.pending, resp.ID)
	d.mu.Unlock()
	if ok {
		f.Resolve(resp)
	}
}

// failAll fails every in-flight query in ascending ID order. Iterating
// the map directly would wake the waiting tasks in Go's randomized map
// order, which leaks into the kernel's run queue and breaks bit-level
// reproducibility of lossy campaigns.
func (d *demux) failAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range slices.Sorted(maps.Keys(d.pending)) {
		d.pending[id].Fail()
		delete(d.pending, id)
	}
}

// --- RFC 7766 length-prefix codec (DoTCP, DoT, DoQ since doq-i03) ---

// appendPrefixed encodes the message with its 2-byte length prefix in a
// single right-sized buffer.
//
//simlint:hotpath
func appendPrefixed(m *dnsmsg.Message) []byte {
	wire := m.AppendEncode(make([]byte, 2, 2+512))
	n := len(wire) - 2
	wire[0] = byte(n >> 8)
	wire[1] = byte(n)
	return wire
}

var errTruncated = errors.New("dox: truncated length-prefixed message")

// unprefix splits one length-prefixed message off the front of b. It is
// the only parser of the length prefix.
func unprefix(b []byte) (msg, rest []byte, err error) {
	if len(b) < 2 {
		return nil, b, errTruncated
	}
	n := 2 + (int(b[0])<<8 | int(b[1]))
	if len(b) < n {
		return nil, b, errTruncated
	}
	return b[2:n], b[n:], nil
}

// byteStream is the reader side every stream transport satisfies
// (netapi.StreamConn, netapi.TLSConn, tlsmini.Conn).
type byteStream interface {
	Read() ([]byte, bool)
}

// prefixReader splits a byte stream into length-prefixed messages. It
// consumes its buffer through a cursor and moves the unread tail to the
// front before each read, so a long-lived connection neither copies its
// buffer per message nor grows it past one chunk plus a partial message.
type prefixReader struct {
	s   byteStream
	buf []byte
	off int
}

// next returns the next message. The slice aliases the reader's buffer
// and is valid only until the following call.
func (r *prefixReader) next() ([]byte, error) {
	for {
		if msg, rest, err := unprefix(r.buf[r.off:]); err == nil {
			r.off = len(r.buf) - len(rest)
			return msg, nil
		}
		chunk, ok := r.s.Read()
		if !ok {
			return nil, errors.New("dox: connection closed")
		}
		if r.off > 0 {
			r.buf = r.buf[:copy(r.buf, r.buf[r.off:])]
			r.off = 0
		}
		r.buf = append(r.buf, chunk...)
	}
}

// message reads and decodes the next message.
func (r *prefixReader) message() (*dnsmsg.Message, error) {
	msg, err := r.next()
	if err != nil {
		return nil, err
	}
	return dnsmsg.Decode(msg)
}

// doqEncode frames a message for a DoQ stream: length-prefixed unless
// the negotiated version predates doq-i03.
func doqEncode(m *dnsmsg.Message, prefixed bool) []byte {
	if prefixed {
		return appendPrefixed(m)
	}
	return m.Encode()
}

// doqDecode parses a DoQ stream's bytes framed as doqEncode writes them.
func doqDecode(data []byte, prefixed bool) (*dnsmsg.Message, error) {
	if prefixed {
		var err error
		if data, _, err = unprefix(data); err != nil {
			return nil, err
		}
	}
	return dnsmsg.Decode(data)
}

// --- QUIC session state ---

// QUICSession is the client-side state the paper's methodology carries
// from a cache-warming connection to the measured connection: the
// address-validation token from the NEW_TOKEN frame, the negotiated wire
// version (so Version Negotiation is not repeated), and the negotiated
// DoQ ALPN (so 0-RTT data can be framed correctly before the handshake
// completes). TLS session tickets live in tlsmini.SessionCache.
type QUICSession struct {
	Token   []byte
	Version uint32
	ALPN    string
}

// QUICSessionStore keeps QUICSessions per resolver address. It serves
// both QUIC transports (DoQ and DoH3); because the ALPN is part of the
// stored state, callers measuring both transports against the same
// resolver keep one store per transport.
type QUICSessionStore struct {
	m map[netip.Addr]*QUICSession
}

// NewQUICSessionStore returns an empty store.
func NewQUICSessionStore() *QUICSessionStore {
	return &QUICSessionStore{m: make(map[netip.Addr]*QUICSession)}
}

// Get returns the stored session state for addr, or nil.
func (s *QUICSessionStore) Get(addr netip.Addr) *QUICSession { return s.m[addr] }

// Put stores session state for addr.
func (s *QUICSessionStore) Put(addr netip.Addr, q *QUICSession) { s.m[addr] = q }

// Remember extracts reusable state from a finished QUIC-based client
// (DoQ or DoH3).
func (s *QUICSessionStore) Remember(addr netip.Addr, c Client) {
	qc, ok := c.(*quicClient)
	if !ok {
		return
	}
	q := &QUICSession{
		Version: qc.conn.Version(),
		ALPN:    qc.conn.ALPN(),
	}
	if tok := qc.conn.NewToken(); len(tok) > 0 {
		q.Token = append([]byte(nil), tok...)
	} else if old := s.m[addr]; old != nil {
		// Keep a previously issued token: a connection that closed
		// before its NEW_TOKEN arrived must not erase usable state.
		q.Token = old.Token
	}
	s.m[addr] = q
}

// Apply primes Options with the stored state: token, the previously
// negotiated version first, and the negotiated ALPN (needed for 0-RTT
// framing).
func (s *QUICSessionStore) Apply(addr netip.Addr, o *Options) {
	q := s.m[addr]
	if q == nil {
		return
	}
	if len(q.Token) > 0 {
		o.Token = append([]byte(nil), q.Token...)
	}
	if q.Version != 0 {
		o.QUICVersions = []uint32{q.Version}
	}
	if q.ALPN != "" {
		o.DoQALPNs = []string{q.ALPN}
	}
}
