// Package h3 implements the subset of HTTP/3 (RFC 9114) that DNS over
// HTTP/3 needs: HEADERS/DATA frames carried on QUIC streams, a control
// stream with a SETTINGS exchange, and a QPACK (RFC 9204) header codec
// restricted to the static table — the configuration a client must use
// when it wants requests to be replayable as 0-RTT data, because the
// static table is known before any server state exists.
//
// The package relates to internal/quic exactly as internal/h2 relates to
// internal/tcpsim: it adds HTTP framing and header compression on top of
// an existing reliable transport. The measurement consequence is the
// paper's open question about DoH3 (§5): HTTP/2's per-connection setup
// (preface, SETTINGS, first-request header literals) and the TCP+TLS
// layering below it make a single DoH query several hundred bytes larger
// than DoQ; once DoH rides QUIC, the framing shrinks to two varint-typed
// frames per request and the header block to mostly 1-byte static-table
// references, so DoH3's single-query sizes land between DoQ and DoH
// (experiment E13).
//
// Deliberate simplifications, mirroring internal/h2's honesty about
// HPACK: QPACK's bit-level prefix-integer and Huffman coding are not
// reproduced — static-table hits cost one byte, name references a small
// literal, exactly the size behaviour of the real encoding — and the
// control-stream SETTINGS exchange runs over one bidirectional stream
// (internal/quic models no unidirectional streams) instead of a pair of
// unidirectional ones. Neither affects timing, and sizes only by a few
// bytes.
package h3

import (
	"errors"
	"fmt"

	"repro/internal/netapi"
	"repro/internal/quic"
)

// Frame types (RFC 9114 §7.2).
const (
	frameData     = 0x0
	frameHeaders  = 0x1
	frameSettings = 0x4
	frameGoAway   = 0x7
)

// StreamTypeControl opens a control stream (RFC 9114 §6.2.1). Request
// streams carry no stream-type prefix; they begin directly with a
// HEADERS frame, so the first varint on a stream discriminates the two.
const StreamTypeControl = 0x00

// Settings identifiers (RFC 9114 §7.2.4.1, RFC 9204 §5).
const (
	settingQPACKMaxTableCapacity = 0x01
	settingMaxFieldSectionSize   = 0x06
	settingQPACKBlockedStreams   = 0x07
)

// Header is an HTTP header field.
type Header struct {
	Name, Value string
}

// settingsPayload advertises the static-table-only QPACK configuration:
// a zero-capacity dynamic table and no blocked streams.
func settingsPayload() []byte {
	var b []byte
	b = quic.AppendVarint(b, settingQPACKMaxTableCapacity)
	b = quic.AppendVarint(b, 0)
	b = quic.AppendVarint(b, settingMaxFieldSectionSize)
	b = quic.AppendVarint(b, 16384)
	b = quic.AppendVarint(b, settingQPACKBlockedStreams)
	b = quic.AppendVarint(b, 0)
	return b
}

// appendFrame appends one HTTP/3 frame: type varint, length varint,
// payload.
//
//simlint:hotpath
func appendFrame(b []byte, ftype uint64, payload []byte) []byte {
	b = quic.AppendVarint(b, ftype)
	b = quic.AppendVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// readFrame slices one frame off the front of b.
func readFrame(b []byte) (ftype uint64, payload, rest []byte, err error) {
	ftype, n, err := quic.ReadVarint(b)
	if err != nil {
		return 0, nil, nil, err
	}
	b = b[n:]
	length, n, err := quic.ReadVarint(b)
	if err != nil {
		return 0, nil, nil, err
	}
	b = b[n:]
	if uint64(len(b)) < length {
		return 0, nil, nil, errors.New("h3: truncated frame")
	}
	return ftype, b[:length], b[length:], nil
}

// --- QPACK static-table-only codec ---

// staticEntry is one RFC 9204 Appendix A static-table row at its RFC
// index (the table is sparse in index space here, so each entry carries
// its own index).
type staticEntry struct {
	idx uint64
	h   Header
}

// staticTable is the subset of the RFC 9204 Appendix A static table that
// DNS over HTTP/3 exchanges touch. The table was designed with DoH in
// mind: "accept: application/dns-message" and "content-type:
// application/dns-message" are static entries, which is why a DoH3
// request encodes almost entirely in 1-byte references.
var staticTable = []staticEntry{
	{0, Header{":authority", ""}},
	{1, Header{":path", "/"}},
	{2, Header{"age", "0"}},
	{3, Header{"content-disposition", ""}},
	{4, Header{"content-length", "0"}},
	{17, Header{":method", "GET"}},
	{20, Header{":method", "POST"}},
	{22, Header{":scheme", "http"}},
	{23, Header{":scheme", "https"}},
	{24, Header{":status", "103"}},
	{25, Header{":status", "200"}},
	{26, Header{":status", "304"}},
	{27, Header{":status", "404"}},
	{28, Header{":status", "503"}},
	{29, Header{"accept", "*/*"}},
	{30, Header{"accept", "application/dns-message"}},
	{31, Header{"accept-encoding", "gzip, deflate, br"}},
	{36, Header{"cache-control", "max-age=0"}},
	{44, Header{"content-type", "application/dns-message"}},
	{95, Header{"user-agent", ""}}, // name-only reference
}

// staticLookup returns (index, exact): a full match when the static
// table holds name:value, else a name-only match, else ok=false.
func staticLookup(h Header) (idx uint64, exact, ok bool) {
	nameIdx, nameOK := uint64(0), false
	for _, e := range staticTable {
		if e.h.Name != h.Name {
			continue
		}
		if e.h.Value == h.Value {
			return e.idx, true, true
		}
		if !nameOK {
			nameIdx, nameOK = e.idx, true
		}
	}
	return nameIdx, false, nameOK
}

func staticByIndex(idx uint64) (Header, bool) {
	for _, e := range staticTable {
		if e.idx == idx {
			return e.h, true
		}
	}
	return Header{}, false
}

// Field-line markers. The real QPACK packs these into prefix-integer
// bit patterns; one marker byte reproduces the same sizes.
const (
	fieldIndexedStatic = 0xc0 // full static match: marker|nothing, index byte follows
	fieldNameRefStatic = 0x50 // static name, literal value
	fieldLiteral       = 0x20 // literal name and value
)

// EncodeFieldSection encodes headers as a QPACK field section using only
// the static table: a 2-byte prefix (Required Insert Count 0, Base 0 —
// no dynamic table), then one field line per header.
func EncodeFieldSection(headers []Header) []byte {
	b := []byte{0x00, 0x00}
	for _, h := range headers {
		idx, exact, ok := staticLookup(h)
		switch {
		case ok && exact:
			b = append(b, fieldIndexedStatic, byte(idx))
		case ok && len(h.Value) < 256:
			b = append(b, fieldNameRefStatic, byte(idx), byte(len(h.Value)))
			b = append(b, h.Value...)
		default:
			b = append(b, fieldLiteral, byte(len(h.Name)))
			b = append(b, h.Name...)
			b = append(b, byte(len(h.Value)>>8), byte(len(h.Value)))
			b = append(b, h.Value...)
		}
	}
	return b
}

// DecodeFieldSection reverses EncodeFieldSection.
func DecodeFieldSection(b []byte) ([]Header, error) {
	if len(b) < 2 {
		return nil, errors.New("h3: short field section")
	}
	b = b[2:]
	var out []Header
	for len(b) > 0 {
		switch b[0] {
		case fieldIndexedStatic:
			if len(b) < 2 {
				return nil, errors.New("h3: truncated indexed field")
			}
			h, ok := staticByIndex(uint64(b[1]))
			if !ok {
				return nil, fmt.Errorf("h3: unknown static index %d", b[1])
			}
			out = append(out, h)
			b = b[2:]
		case fieldNameRefStatic:
			if len(b) < 3 {
				return nil, errors.New("h3: truncated name-ref field")
			}
			h, ok := staticByIndex(uint64(b[1]))
			if !ok {
				return nil, fmt.Errorf("h3: unknown static name index %d", b[1])
			}
			vl := int(b[2])
			if len(b) < 3+vl {
				return nil, errors.New("h3: truncated field value")
			}
			out = append(out, Header{h.Name, string(b[3 : 3+vl])})
			b = b[3+vl:]
		case fieldLiteral:
			if len(b) < 2 {
				return nil, errors.New("h3: truncated literal field")
			}
			nl := int(b[1])
			if len(b) < 2+nl+2 {
				return nil, errors.New("h3: truncated literal name")
			}
			name := string(b[2 : 2+nl])
			vl := int(b[2+nl])<<8 | int(b[3+nl])
			if len(b) < 4+nl+vl {
				return nil, errors.New("h3: truncated literal value")
			}
			out = append(out, Header{name, string(b[4+nl : 4+nl+vl])})
			b = b[4+nl+vl:]
		default:
			return nil, fmt.Errorf("h3: unknown field marker 0x%02x", b[0])
		}
	}
	return out, nil
}

// --- Client ---

// Response is a completed HTTP/3 exchange result.
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

// ClientConn is the client side of an HTTP/3 connection. Each request
// runs on its own client-initiated bidirectional QUIC stream (HEADERS
// then DATA, FIN); the control stream carries the SETTINGS exchange.
type ClientConn struct {
	rt     netapi.Runtime
	conn   *quic.Conn
	ctrl   *quic.Stream
	closed bool
}

// NewClientConn opens the control stream and sends SETTINGS. When the
// connection was dialed early with 0-RTT offered, the SETTINGS — and any
// requests issued before the handshake completes — ride in 0-RTT
// packets; the framing depends only on the static QPACK table, so it
// needs no negotiated server state (the DoH3 analogue of DoQ's rule
// that 0-RTT framing follows the offered ALPN).
func NewClientConn(rt netapi.Runtime, conn *quic.Conn) *ClientConn {
	c := &ClientConn{rt: rt, conn: conn, ctrl: conn.OpenStream()}
	var b []byte
	b = quic.AppendVarint(b, StreamTypeControl)
	b = appendFrame(b, frameSettings, settingsPayload())
	c.ctrl.Write(b, false)
	// Drain the server's SETTINGS (and any GOAWAY) until teardown.
	rt.Go(func() {
		for {
			if _, ok := c.ctrl.Read(); !ok {
				return
			}
		}
	})
	return c
}

// RoundTrip issues one request on a fresh stream and blocks for the
// response.
func (c *ClientConn) RoundTrip(headers []Header, body []byte) (*Response, error) {
	if c.closed {
		return nil, errors.New("h3: connection closed")
	}
	st := c.conn.OpenStream()
	var b []byte
	b = appendFrame(b, frameHeaders, EncodeFieldSection(headers))
	b = appendFrame(b, frameData, body)
	if err := st.Write(b, true); err != nil {
		return nil, err
	}
	raw, ok := st.ReadAll()
	if !ok {
		return nil, errors.New("h3: request stream reset or connection lost")
	}
	resp, err := parseExchange(raw)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// parseExchange splits a stream's bytes into HEADERS + DATA frames: a
// response on the client, a request on the server.
func parseExchange(raw []byte) (Response, error) {
	var resp Response
	sawHeaders := false
	for len(raw) > 0 {
		ftype, payload, rest, err := readFrame(raw)
		if err != nil {
			return Response{}, err
		}
		raw = rest
		switch ftype {
		case frameHeaders:
			hs, err := DecodeFieldSection(payload)
			if err != nil {
				return Response{}, err
			}
			resp.Headers = append(resp.Headers, hs...)
			sawHeaders = true
		case frameData:
			resp.Body = append(resp.Body, payload...)
		default:
			// Unknown frame types are ignored (RFC 9114 §9).
		}
	}
	if !sawHeaders {
		return Response{}, errors.New("h3: stream ended without HEADERS")
	}
	return resp, nil
}

// Close sends GOAWAY on the control stream and closes the connection.
func (c *ClientConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.ctrl.Write(appendFrame(nil, frameGoAway, []byte{0}), false)
	c.conn.Close()
}

// --- Server ---

// Handler processes one request and returns the response.
type Handler func(headers []Header, body []byte) (respHeaders []Header, respBody []byte)

// ServeConn runs the server side of an HTTP/3 connection until the peer
// disconnects: the control stream answers the SETTINGS exchange, request
// streams are served concurrently. It blocks, so call it from its own
// sim task.
func ServeConn(rt netapi.Runtime, conn *quic.Conn, handler Handler) {
	spawn := netapi.NewSpawner(rt, serveStream)
	for {
		st, ok := conn.AcceptStream()
		if !ok {
			return
		}
		spawn.Go(stream{st, handler})
	}
}

// stream is one accepted stream and the handler that answers it.
type stream struct {
	st      *quic.Stream
	handler Handler
}

func serveStream(s stream) {
	st, handler := s.st, s.handler
	first, ok := st.Read()
	if !ok || len(first) == 0 {
		return
	}
	if first[0] == StreamTypeControl {
		// Control stream: acknowledge with our SETTINGS on the same
		// (bidirectional) stream and keep draining until teardown.
		var b []byte
		b = quic.AppendVarint(b, StreamTypeControl)
		b = appendFrame(b, frameSettings, settingsPayload())
		st.Write(b, false)
		for {
			if _, ok := st.Read(); !ok {
				return
			}
		}
	}
	// Request stream: gather until FIN, then serve.
	rest, ok := st.ReadAll()
	if !ok {
		return
	}
	req, err := parseExchange(append(first, rest...))
	if err != nil {
		return
	}
	respHeaders, respBody := handler(req.Headers, req.Body)
	var out []byte
	out = appendFrame(out, frameHeaders, EncodeFieldSection(respHeaders))
	out = appendFrame(out, frameData, respBody)
	st.Write(out, true)
}
