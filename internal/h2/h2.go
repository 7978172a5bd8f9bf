// Package h2 implements the subset of HTTP/2 (RFC 9113) that DNS over
// HTTPS needs: the client connection preface, SETTINGS exchange, and
// HEADERS/DATA streams with an HPACK-like header compression scheme.
//
// The point of modeling HTTP/2 explicitly (rather than treating DoH as
// "DoT with a different port") is the size overhead the paper's Table 1
// attributes to DoH: message framing and header compression setup make a
// single DoH query several hundred bytes larger than the equivalent DoT
// or DoQ query. The first request on a connection carries full header
// literals; later requests reference the connection's dynamic table and
// shrink dramatically, which is also why resolving many names over one
// DoH connection amortizes better than its single-query numbers suggest.
// internal/h3 plays the same role for DoH3 on the QUIC stack, where the
// first-request literal penalty disappears into QPACK's static table
// (experiment E13 compares the two).
package h2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/netapi"
	"repro/internal/tlsmini"
)

// ClientPreface opens every HTTP/2 client connection (RFC 9113 §3.4).
const ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// Frame types.
const (
	frameData     = 0x0
	frameHeaders  = 0x1
	frameSettings = 0x4
	frameGoAway   = 0x7
)

// Frame flags.
const (
	flagEndStream   = 0x1
	flagEndHeaders  = 0x4
	flagSettingsAck = 0x1
)

// Header is an HTTP header field.
type Header struct {
	Name, Value string
}

// settingsPayload models a typical SETTINGS frame body (6 bytes per
// setting, three settings).
var settingsPayload = make([]byte, 18)

//simlint:hotpath
func writeFrame(s tlsmini.Stream, ftype, flags byte, streamID uint32, payload []byte) error {
	buf := make([]byte, 9, 9+len(payload))
	buf[0] = byte(len(payload) >> 16)
	buf[1] = byte(len(payload) >> 8)
	buf[2] = byte(len(payload))
	buf[3] = ftype
	buf[4] = flags
	binary.BigEndian.PutUint32(buf[5:], streamID)
	return s.Write(append(buf, payload...))
}

type rawFrame struct {
	ftype, flags byte
	streamID     uint32
	payload      []byte
}

// frameReader buffers stream chunks and slices them into frames.
type frameReader struct {
	s   tlsmini.Stream
	buf []byte
	eof bool
}

func (r *frameReader) fill() bool {
	if r.eof {
		return false
	}
	chunk, ok := r.s.Read()
	if !ok {
		r.eof = true
		return false
	}
	r.buf = append(r.buf, chunk...)
	return true
}

func (r *frameReader) skip(n int) bool {
	for len(r.buf) < n {
		if !r.fill() {
			return false
		}
	}
	r.buf = r.buf[n:]
	return true
}

func (r *frameReader) next() (rawFrame, bool) {
	for len(r.buf) < 9 {
		if !r.fill() {
			return rawFrame{}, false
		}
	}
	n := int(r.buf[0])<<16 | int(r.buf[1])<<8 | int(r.buf[2])
	f := rawFrame{ftype: r.buf[3], flags: r.buf[4], streamID: binary.BigEndian.Uint32(r.buf[5:9]) & 0x7fffffff}
	for len(r.buf) < 9+n {
		if !r.fill() {
			return rawFrame{}, false
		}
	}
	f.payload = append([]byte(nil), r.buf[9:9+n]...)
	r.buf = r.buf[9+n:]
	return f, true
}

// hpackTable is a toy dynamic table: full literals on first use, 2-byte
// references afterwards (the size behaviour of HPACK without its exact
// encoding).
type hpackTable struct {
	index map[Header]uint16
	byIdx []Header // byIdx[i] holds the header assigned index 62+i
	next  uint16
	ebuf  []byte // encode scratch; safe because writeFrame copies
}

func newHpackTable() *hpackTable {
	return &hpackTable{index: make(map[Header]uint16), next: 62} // after static table
}

func (t *hpackTable) insert(h Header) {
	t.index[h] = t.next
	t.byIdx = append(t.byIdx, h)
	t.next++
}

func (t *hpackTable) encode(headers []Header) []byte {
	b := append(t.ebuf[:0], byte(len(headers)))
	for _, h := range headers {
		if idx, ok := t.index[h]; ok {
			b = append(b, 0xff)
			b = binary.BigEndian.AppendUint16(b, idx)
			continue
		}
		t.insert(h)
		b = append(b, byte(len(h.Name)))
		b = append(b, h.Name...)
		b = binary.BigEndian.AppendUint16(b, uint16(len(h.Value)))
		b = append(b, h.Value...)
	}
	t.ebuf = b
	return b
}

func (t *hpackTable) decode(b []byte) ([]Header, error) {
	if len(b) < 1 {
		return nil, errors.New("h2: empty header block")
	}
	n := int(b[0])
	b = b[1:]
	out := make([]Header, 0, n)
	// The decoder mirrors the encoder's table assignments.
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, errors.New("h2: truncated header block")
		}
		if b[0] == 0xff {
			if len(b) < 3 {
				return nil, errors.New("h2: truncated header reference")
			}
			idx := binary.BigEndian.Uint16(b[1:3])
			b = b[3:]
			h, ok := t.byIndex(idx)
			if !ok {
				return nil, fmt.Errorf("h2: unknown header index %d", idx)
			}
			out = append(out, h)
			continue
		}
		nl := int(b[0])
		if len(b) < 1+nl+2 {
			return nil, errors.New("h2: truncated header literal")
		}
		name := string(b[1 : 1+nl])
		vl := int(binary.BigEndian.Uint16(b[1+nl : 3+nl]))
		if len(b) < 3+nl+vl {
			return nil, errors.New("h2: truncated header value")
		}
		value := string(b[3+nl : 3+nl+vl])
		b = b[3+nl+vl:]
		h := Header{name, value}
		t.insert(h)
		out = append(out, h)
	}
	return out, nil
}

func (t *hpackTable) byIndex(idx uint16) (Header, bool) {
	if idx >= 62 && int(idx-62) < len(t.byIdx) {
		return t.byIdx[idx-62], true
	}
	return Header{}, false
}

// Response is a completed HTTP/2 exchange result.
type Response struct {
	Headers []Header
	Body    []byte
}

// Status returns the :status pseudo-header value.
func (r *Response) Status() string {
	for _, h := range r.Headers {
		if h.Name == ":status" {
			return h.Value
		}
	}
	return ""
}

// ClientConn is the client side of an HTTP/2 connection.
type ClientConn struct {
	rt      netapi.Runtime
	s       tlsmini.Stream
	reader  *frameReader
	encTab  *hpackTable
	decTab  *hpackTable
	nextID  uint32
	pending map[uint32]*streamState
	closed  bool
}

type streamState struct {
	headers []Header
	body    []byte
	done    *netapi.Future[*Response]
}

// NewClientConn sends the connection preface and SETTINGS, and starts the
// response dispatcher.
func NewClientConn(rt netapi.Runtime, s tlsmini.Stream) (*ClientConn, error) {
	c := &ClientConn{
		rt:      rt,
		s:       s,
		reader:  &frameReader{s: s},
		encTab:  newHpackTable(),
		decTab:  newHpackTable(),
		nextID:  1,
		pending: make(map[uint32]*streamState),
	}
	if err := s.Write([]byte(ClientPreface)); err != nil {
		return nil, err
	}
	if err := writeFrame(s, frameSettings, 0, 0, settingsPayload); err != nil {
		return nil, err
	}
	rt.Go(c.readLoop)
	return c, nil
}

// failPending fails open streams in ascending stream-ID order so the
// waiting tasks wake deterministically (map order would leak Go's
// randomized iteration into the simulation's run queue).
func (c *ClientConn) failPending() {
	for _, id := range slices.Sorted(maps.Keys(c.pending)) {
		c.pending[id].done.Fail()
		delete(c.pending, id)
	}
}

func (c *ClientConn) readLoop() {
	for {
		f, ok := c.reader.next()
		if !ok {
			c.closed = true
			c.failPending()
			return
		}
		switch f.ftype {
		case frameSettings:
			if f.flags&flagSettingsAck == 0 {
				writeFrame(c.s, frameSettings, flagSettingsAck, 0, nil)
			}
		case frameHeaders:
			st := c.pending[f.streamID]
			if st == nil {
				continue
			}
			hs, err := c.decTab.decode(f.payload)
			if err != nil {
				st.done.Fail()
				delete(c.pending, f.streamID)
				continue
			}
			st.headers = hs
			if f.flags&flagEndStream != 0 {
				st.done.Resolve(&Response{Headers: st.headers, Body: st.body})
				delete(c.pending, f.streamID)
			}
		case frameData:
			st := c.pending[f.streamID]
			if st == nil {
				continue
			}
			st.body = append(st.body, f.payload...)
			if f.flags&flagEndStream != 0 {
				st.done.Resolve(&Response{Headers: st.headers, Body: st.body})
				delete(c.pending, f.streamID)
			}
		case frameGoAway:
			c.closed = true
			c.failPending()
			return
		}
	}
}

// RoundTrip issues one request and blocks for its response.
func (c *ClientConn) RoundTrip(headers []Header, body []byte) (*Response, error) {
	if c.closed {
		return nil, errors.New("h2: connection closed")
	}
	id := c.nextID
	c.nextID += 2
	// Static name: the id only matters in deadlock diagnostics, and
	// formatting it would allocate per request.
	st := &streamState{done: netapi.NewFuture[*Response](c.rt, "h2-stream")}
	c.pending[id] = st
	if err := writeFrame(c.s, frameHeaders, flagEndHeaders, id, c.encTab.encode(headers)); err != nil {
		return nil, err
	}
	if err := writeFrame(c.s, frameData, flagEndStream, id, body); err != nil {
		return nil, err
	}
	resp, ok := st.done.Wait()
	if !ok {
		return nil, errors.New("h2: stream reset or connection lost")
	}
	return resp, nil
}

// Close tears the connection down.
func (c *ClientConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	writeFrame(c.s, frameGoAway, 0, 0, make([]byte, 8))
	c.s.Close()
}

// Handler processes one request and returns the response.
type Handler func(headers []Header, body []byte) (respHeaders []Header, respBody []byte)

// ServeConn runs the server side of an HTTP/2 connection until the peer
// disconnects. It blocks, so call it from its own sim task.
func ServeConn(rt netapi.Runtime, s tlsmini.Stream, handler Handler) {
	reader := &frameReader{s: s}
	// Consume the client preface.
	if !reader.skip(len(ClientPreface)) {
		return
	}
	if err := writeFrame(s, frameSettings, 0, 0, settingsPayload); err != nil {
		return
	}
	decTab, encTab := newHpackTable(), newHpackTable()
	// Streams are served concurrently, as real servers do; response
	// frames interleave but are written atomically.
	spawn := netapi.NewSpawner(rt, serveRequest)
	reqs := make(map[uint32]*reqState)
	for {
		f, ok := reader.next()
		if !ok {
			return
		}
		switch f.ftype {
		case frameSettings:
			if f.flags&flagSettingsAck == 0 {
				writeFrame(s, frameSettings, flagSettingsAck, 0, nil)
			}
		case frameHeaders:
			hs, err := decTab.decode(f.payload)
			if err != nil {
				return
			}
			reqs[f.streamID] = &reqState{headers: hs}
			if f.flags&flagEndStream != 0 {
				st, id := reqs[f.streamID], f.streamID
				delete(reqs, f.streamID)
				spawn.Go(request{s, encTab, handler, id, st})
			}
		case frameData:
			st := reqs[f.streamID]
			if st == nil {
				continue
			}
			st.body = append(st.body, f.payload...)
			if f.flags&flagEndStream != 0 {
				delete(reqs, f.streamID)
				spawn.Go(request{s, encTab, handler, f.streamID, st})
			}
		case frameGoAway:
			return
		}
	}
}

type reqState struct {
	headers []Header
	body    []byte
}

// request is one complete request stream plus the connection state its
// response task shares with the connection's other response tasks.
type request struct {
	s       tlsmini.Stream
	encTab  *hpackTable
	handler Handler
	id      uint32
	req     *reqState
}

// serveRequest answers one request in a task of its own.
func serveRequest(r request) {
	respHeaders, respBody := r.handler(r.req.headers, r.req.body)
	writeFrame(r.s, frameHeaders, flagEndHeaders, r.id, r.encTab.encode(respHeaders))
	writeFrame(r.s, frameData, flagEndStream, r.id, respBody)
}
