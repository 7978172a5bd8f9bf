// Package tcpsim implements a simplified TCP over netem: 3-way
// handshake, cumulative-ACK reliable byte stream with go-back-N
// retransmission, RFC 6298-style RTO with the standard 1-second initial
// timeout (which the paper contrasts with DoUDP's 5-second
// application-layer retransmit), and FIN teardown.
//
// Segment layout on the wire: flags(1) seq(4) ack(4) padding. Headers are
// padded to 32 bytes (20-byte TCP header plus common options such as
// timestamps), 40 bytes for SYN/SYN-ACK, matching what the paper's
// Table 1 counts as IP payload for the DoTCP handshake (72 bytes
// client-to-resolver: SYN 40 + ACK 32; 40 bytes back: SYN-ACK).
//
// TCP Fast Open is intentionally not implemented: the paper found no
// resolver supporting it, so every connection pays the full round trip.
package tcpsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Wire sizes.
const (
	headerLen    = 32 // TCP header + options (timestamps)
	synHeaderLen = 40 // SYN carries more options (MSS, SACK, WScale)
	// MSS is the maximum payload per segment.
	MSS = 1380
)

// Retransmission parameters (RFC 6298 flavoured).
const (
	initialRTO = 1 * time.Second
	minRTO     = 200 * time.Millisecond
	maxRTO     = 60 * time.Second
	maxRetries = 8
)

// Segment flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagRST
)

type segment struct {
	flags   uint8
	seq     uint32
	ack     uint32
	payload []byte
}

// appendSegment encodes s into b, which must be an empty slice with
// enough capacity (wire buffers are leased from the socket's pool, so
// per-segment encodes allocate nothing).
//
//simlint:hotpath
func appendSegment(b []byte, s segment) []byte {
	n := headerLen
	if s.flags&flagSYN != 0 {
		n = synHeaderLen
	}
	b = b[:n+len(s.payload)]
	clear(b[:n]) // header padding must not leak pooled bytes
	b[0] = s.flags
	binary.BigEndian.PutUint32(b[1:5], s.seq)
	binary.BigEndian.PutUint32(b[5:9], s.ack)
	b[9] = byte(n) // header length marker
	copy(b[n:], s.payload)
	return b
}

// wireSize is the encoded size of s.
func wireSize(s segment) int {
	if s.flags&flagSYN != 0 {
		return synHeaderLen + len(s.payload)
	}
	return headerLen + len(s.payload)
}

func decodeSegment(b []byte) (segment, error) {
	if len(b) < 10 {
		return segment{}, errors.New("tcpsim: short segment")
	}
	hl := int(b[9])
	if hl < 10 || hl > len(b) {
		return segment{}, errors.New("tcpsim: bad header length")
	}
	return segment{
		flags:   b[0],
		seq:     binary.BigEndian.Uint32(b[1:5]),
		ack:     binary.BigEndian.Uint32(b[5:9]),
		payload: append([]byte(nil), b[hl:]...),
	}, nil
}

// Conn is an established TCP connection. It satisfies tlsmini.Stream.
type Conn struct {
	w     *sim.World
	sock  *netem.Socket // client: own socket; server: shared via listener
	owned bool          // whether Close should close sock
	peer  netip.AddrPort

	sndNxt uint32
	sndUna uint32
	rcvNxt uint32

	rtxq     []segment
	rtxTimer sim.Timer
	rtxFn    func() // onRtxTimeout, bound once so re-arming allocates nothing
	rto      time.Duration
	retries  int
	srtt     time.Duration
	sentAt   map[uint32]time.Duration // seq -> send time for RTT samples

	readQ    *sim.Queue[[]byte]
	ooo      map[uint32]segment  // out-of-order segments by sequence
	incoming *sim.Queue[segment] // server-side demuxed segments
	onClose  func()              // listener's demux-map removal hook
	dead     bool
	sentFIN  bool
	gotFIN   bool
}

// Stats returns the client-side byte counters of the underlying socket
// (IP payload bytes, per the paper's accounting). Only meaningful for
// dialed connections, which own their socket.
func (c *Conn) Stats() (tx, rx int) {
	return c.sock.TxBytes, c.sock.RxBytes
}

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() netip.AddrPort { return c.sock.LocalAddr() }

// RemoteAddr returns the peer endpoint.
func (c *Conn) RemoteAddr() netip.AddrPort { return c.peer }

func newConn(w *sim.World, sock *netem.Socket, owned bool, peer netip.AddrPort) *Conn {
	c := &Conn{
		w:      w,
		sock:   sock,
		owned:  owned,
		peer:   peer,
		rto:    initialRTO,
		sentAt: make(map[uint32]time.Duration),
		readQ:  sim.NewQueue[[]byte](w, "tcp-read"),
		ooo:    make(map[uint32]segment),
	}
	c.rtxFn = c.onRtxTimeout
	return c
}

// Dial establishes a connection from host to raddr. It blocks on the
// virtual clock for the 3-way handshake (one RTT), retransmitting the SYN
// with exponential backoff on loss.
func Dial(host *netem.Host, raddr netip.AddrPort) (*Conn, error) {
	w := host.World()
	sock := host.Dial(netem.ProtoTCP, 0) // overhead folded into padded headers
	c := newConn(w, sock, true, raddr)
	c.sndNxt = 1
	c.rcvNxt = 0

	rto := initialRTO
	for attempt := 0; ; attempt++ {
		if attempt > maxRetries {
			sock.Close()
			return nil, errors.New("tcpsim: connect timeout")
		}
		syn := segment{flags: flagSYN, seq: 0}
		sock.Send(raddr, appendSegment(sock.Pool().Get(wireSize(syn)), syn))
		d, ok := sock.RecvTimeout(rto)
		if !ok {
			rto *= 2
			continue
		}
		if d.Reject {
			// Middlebox rejected the SYN (administratively prohibited):
			// fail fast instead of burning the retransmit budget.
			sock.Close()
			return nil, errors.New("tcpsim: connection refused")
		}
		seg, err := decodeSegment(d.Payload)
		sock.Pool().Put(d.Payload)
		if err != nil || seg.flags&(flagSYN|flagACK) != flagSYN|flagACK {
			continue
		}
		c.rcvNxt = seg.seq + 1
		break
	}
	c.sndUna = 1
	// Third handshake segment: pure ACK.
	ack := segment{flags: flagACK, seq: c.sndNxt, ack: c.rcvNxt}
	sock.Send(raddr, appendSegment(sock.Pool().Get(wireSize(ack)), ack))
	w.Go(c.clientLoop)
	return c, nil
}

func (c *Conn) clientLoop() {
	for {
		d, ok := c.sock.Recv()
		if !ok {
			c.teardown()
			return
		}
		if d.Reject {
			// A mid-connection rejection (policy flipped on): the path is
			// administratively dead, so tear down like an RST.
			c.teardown()
			return
		}
		seg, err := decodeSegment(d.Payload)
		c.sock.Pool().Put(d.Payload)
		if err != nil {
			continue
		}
		c.handleSegment(seg)
		if c.dead {
			return
		}
	}
}

// serverLoop drains segments demuxed by the listener.
func (c *Conn) serverLoop() {
	for {
		seg, ok := c.incoming.Pop()
		if !ok {
			c.teardown()
			return
		}
		c.handleSegment(seg)
		if c.dead {
			return
		}
	}
}

func (c *Conn) handleSegment(seg segment) {
	if seg.flags&flagRST != 0 {
		c.teardown()
		return
	}
	if seg.flags&flagACK != 0 {
		c.processAck(seg.ack)
	}
	if len(seg.payload) > 0 || seg.flags&flagFIN != 0 {
		c.processData(seg)
	}
}

func (c *Conn) processAck(ack uint32) {
	if ack <= c.sndUna {
		return
	}
	if at, ok := c.sentAt[ack]; ok {
		sample := c.w.Now() - at
		if c.srtt == 0 {
			c.srtt = sample
		} else {
			c.srtt = (7*c.srtt + sample) / 8
		}
		rto := 2*c.srtt + 50*time.Millisecond
		if rto < minRTO {
			rto = minRTO
		}
		c.rto = rto
		delete(c.sentAt, ack)
	}
	c.sndUna = ack
	// Drop fully acknowledged segments from the retransmission queue.
	keep := c.rtxq[:0]
	for _, s := range c.rtxq {
		end := s.seq + uint32(len(s.payload))
		if s.flags&flagFIN != 0 {
			end++
		}
		if end > ack {
			keep = append(keep, s)
		}
	}
	c.rtxq = keep
	c.retries = 0
	c.rearmRtx()
}

func (c *Conn) processData(seg segment) {
	switch {
	case seg.seq == c.rcvNxt:
		c.deliver(seg)
		// Drain any buffered continuation.
		for {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.deliver(next)
		}
		c.sendAck()
	case seg.seq < c.rcvNxt:
		// Duplicate (retransmission already received): re-ACK.
		c.sendAck()
	default:
		// Out of order (reordering or loss): buffer until the gap fills,
		// and send a duplicate ACK so the sender can recover the hole.
		c.ooo[seg.seq] = seg
		c.sendAck()
	}
}

// deliver consumes an in-sequence segment.
func (c *Conn) deliver(seg segment) {
	if len(seg.payload) > 0 {
		c.rcvNxt = seg.seq + uint32(len(seg.payload))
		c.readQ.Push(seg.payload)
	}
	if seg.flags&flagFIN != 0 {
		c.rcvNxt++
		c.gotFIN = true
		c.readQ.Close()
	}
}

//simlint:hotpath
func (c *Conn) sendAck() {
	c.send(segment{flags: flagACK, seq: c.sndNxt, ack: c.rcvNxt})
}

//simlint:hotpath
func (c *Conn) send(s segment) {
	c.sock.Send(c.peer, appendSegment(c.sock.Pool().Get(wireSize(s)), s))
}

// Write queues p for reliable delivery, segmenting at MSS.
func (c *Conn) Write(p []byte) error {
	if c.dead {
		return errors.New("tcpsim: connection closed")
	}
	if c.sentFIN {
		return errors.New("tcpsim: write after close")
	}
	for off := 0; off < len(p); off += MSS {
		end := off + MSS
		if end > len(p) {
			end = len(p)
		}
		chunk := append([]byte(nil), p[off:end]...)
		s := segment{flags: flagACK, seq: c.sndNxt, ack: c.rcvNxt, payload: chunk}
		c.sndNxt += uint32(len(chunk))
		c.rtxq = append(c.rtxq, s)
		c.sentAt[c.sndNxt] = c.w.Now()
		c.send(s)
	}
	c.rearmRtx()
	return nil
}

// Read blocks for the next chunk of received bytes; ok is false once the
// peer's FIN has been consumed or the connection died.
func (c *Conn) Read() ([]byte, bool) { return c.readQ.Pop() }

// Abort tears the connection down immediately without the FIN exchange:
// pending and future reads fail at once, and nothing in flight is
// waited for. This is what the 4-tuple's death looks like from above
// when the host's address changes underneath it (an access-network
// flip): the peer's in-flight bytes can never arrive, and the local
// stack surfaces the break synchronously.
func (c *Conn) Abort() {
	c.teardown()
}

// Close sends FIN and releases resources once the retransmission queue
// drains. It does not linger waiting for the peer's FIN.
func (c *Conn) Close() {
	if c.dead || c.sentFIN {
		return
	}
	c.sentFIN = true
	s := segment{flags: flagACK | flagFIN, seq: c.sndNxt, ack: c.rcvNxt}
	c.sndNxt++
	c.rtxq = append(c.rtxq, s)
	c.send(s)
	c.rearmRtx()
	// Allow in-flight retransmissions to finish; the conn fully tears
	// down when the FIN is acknowledged or retries are exhausted.
}

func (c *Conn) rearmRtx() {
	c.rtxTimer.Stop()
	c.rtxTimer = sim.Timer{}
	if len(c.rtxq) == 0 {
		if c.sentFIN {
			c.teardown()
		}
		return
	}
	c.rtxTimer = c.w.AfterFunc(c.rto, c.rtxFn)
}

func (c *Conn) onRtxTimeout() {
	if c.dead || len(c.rtxq) == 0 {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.teardown()
		return
	}
	// Go-back-N: resend everything outstanding.
	for _, s := range c.rtxq {
		s.ack = c.rcvNxt
		c.send(s)
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.rearmRtx()
}

func (c *Conn) teardown() {
	if c.dead {
		return
	}
	c.dead = true
	c.rtxTimer.Stop()
	c.rtxTimer = sim.Timer{}
	c.readQ.Close()
	if c.incoming != nil {
		c.incoming.Close()
	}
	if c.owned {
		c.sock.Close()
	}
	if c.onClose != nil {
		c.onClose()
	}
}

// Listener accepts incoming connections on a port.
type Listener struct {
	w       *sim.World
	sock    *netem.Socket
	conns   map[netip.AddrPort]*Conn
	acceptQ *sim.Queue[*Conn]
	closed  bool
}

// Listen binds a listener to port on host and starts its demux task.
func Listen(host *netem.Host, port uint16) (*Listener, error) {
	sock, err := host.Listen(netem.ProtoTCP, port, 0)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		w:       host.World(),
		sock:    sock,
		conns:   make(map[netip.AddrPort]*Conn),
		acceptQ: sim.NewQueue[*Conn](host.World(), fmt.Sprintf("tcp-accept:%d", port)),
	}
	l.w.Go(l.demux)
	return l, nil
}

func (l *Listener) demux() {
	for {
		d, ok := l.sock.Recv()
		if !ok {
			// Close connections in a fixed (peer-address) order: map
			// iteration order would wake blocked tasks nondeterministically.
			for _, ap := range slices.SortedFunc(maps.Keys(l.conns), netip.AddrPort.Compare) {
				l.conns[ap].incoming.Close()
			}
			l.acceptQ.Close()
			return
		}
		if d.Reject {
			// Rejection notification for one of our sends; the listener
			// keeps serving other peers.
			continue
		}
		seg, err := decodeSegment(d.Payload)
		l.sock.Pool().Put(d.Payload)
		if err != nil {
			continue
		}
		conn, exists := l.conns[d.Src]
		if !exists {
			if seg.flags&flagSYN == 0 {
				// Stray segment for a finished connection.
				continue
			}
			conn = newConn(l.w, l.sock, false, d.Src)
			conn.rcvNxt = seg.seq + 1
			conn.sndNxt = 1
			conn.sndUna = 0
			// Static queue name: conns are created per query on hot paths.
			conn.incoming = sim.NewQueue[segment](l.w, "tcp-in")
			src := d.Src
			conn.onClose = func() { delete(l.conns, src) }
			l.conns[d.Src] = conn
			conn.send(segment{flags: flagSYN | flagACK, seq: 0, ack: conn.rcvNxt})
			l.w.Go(conn.serverLoop)
			l.acceptQ.Push(conn)
			continue
		}
		if seg.flags&flagSYN != 0 {
			// SYN retransmission: re-send SYN-ACK.
			conn.send(segment{flags: flagSYN | flagACK, seq: 0, ack: conn.rcvNxt})
			continue
		}
		conn.incoming.Push(seg)
	}
}

// Accept blocks for the next incoming connection; ok is false once the
// listener is closed.
func (l *Listener) Accept() (*Conn, bool) { return l.acceptQ.Pop() }

// Close shuts the listener and all its connections' demux queues.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.sock.Close()
}

// Addr returns the listening address.
func (l *Listener) Addr() netip.AddrPort { return l.sock.LocalAddr() }
