package h2

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/dnsmsg"
)

// byteStream is an in-memory tlsmini.Stream: Write appends to out, and
// Read hands back in, size bytes per chunk, then reports EOF.
type byteStream struct {
	in, out []byte
	size    int
}

func (s *byteStream) Write(p []byte) error { s.out = append(s.out, p...); return nil }
func (s *byteStream) Close()               {}
func (s *byteStream) Read() ([]byte, bool) {
	if len(s.in) == 0 {
		return nil, false
	}
	n := min(s.size, len(s.in))
	chunk := s.in[:n]
	s.in = s.in[n:]
	return chunk, true
}

// FuzzH2Frames runs the connection decoders over arbitrary stream
// bytes, as ServeConn and the client's readLoop do: an optional client
// preface, then frameReader.next slicing frames, with each HEADERS
// payload through one connection-wide hpackTable.decode. None may
// panic; the frames must not depend on how the stream was chunked; and
// any header block decode accepts must survive a fresh encode/decode
// pair unchanged.
func FuzzH2Frames(f *testing.F) {
	// The two directions of a DoH exchange carrying two queries on one
	// connection, so the second header blocks are table references.
	query := dnsmsg.NewQuery(1, "example.com", dnsmsg.TypeA)
	wire := query.Encode()
	answer := dnsmsg.Reply(query)
	answer.AnswerA(netip.MustParseAddr("192.0.2.1"), 300)
	answerWire := answer.Encode()
	request := []Header{
		{":method", "POST"},
		{":scheme", "https"},
		{":authority", "resolver-003.EU.example"},
		{":path", "/dns-query"},
		{"accept", "application/dns-message"},
		{"content-type", "application/dns-message"},
		{"content-length", "29"},
		{"user-agent", "repro-dnsperf/1.0"},
	}
	status := []Header{
		{":status", "200"},
		{"content-type", "application/dns-message"},
		{"cache-control", "max-age=300"},
	}
	up := &byteStream{out: []byte(ClientPreface)}
	down := &byteStream{}
	enc, srvEnc := newHpackTable(), newHpackTable()
	writeFrame(up, frameSettings, 0, 0, settingsPayload)
	writeFrame(down, frameSettings, 0, 0, settingsPayload)
	writeFrame(down, frameSettings, flagSettingsAck, 0, nil)
	for id := uint32(1); id <= 3; id += 2 {
		writeFrame(up, frameHeaders, flagEndHeaders, id, enc.encode(request))
		writeFrame(up, frameData, flagEndStream, id, wire)
		writeFrame(down, frameHeaders, flagEndHeaders, id, srvEnc.encode(status))
		writeFrame(down, frameData, flagEndStream, id, answerWire)
	}
	writeFrame(up, frameGoAway, 0, 0, make([]byte, 8))
	f.Add(up.out)
	f.Add(down.out)
	// A reference to an index the table never assigned, and a literal
	// whose value runs past the block.
	f.Add([]byte{0, 0, 4, frameHeaders, flagEndHeaders, 0, 0, 0, 1, 1, 0xff, 0, 62})
	f.Add([]byte{0, 0, 6, frameHeaders, flagEndHeaders, 0, 0, 0, 1, 1, 1, 'a', 0, 9, 'b'})

	f.Fuzz(func(t *testing.T, raw []byte) {
		whole := readFrames(raw, len(raw)+1)
		if bytewise := readFrames(raw, 1); !reflect.DeepEqual(whole, bytewise) {
			t.Fatalf("frames depend on chunking:\n%v\n%v", whole, bytewise)
		}
		dec := newHpackTable()
		for _, fr := range whole {
			if fr.ftype != frameHeaders {
				continue
			}
			hs, err := dec.decode(fr.payload)
			if err != nil {
				continue
			}
			again, err := newHpackTable().decode(newHpackTable().encode(hs))
			if err != nil {
				t.Fatalf("re-encoded header block does not decode: %v", err)
			}
			if !reflect.DeepEqual(hs, again) {
				t.Fatalf("headers changed across re-encoding:\n%q\n%q", hs, again)
			}
		}
	})
}

// readFrames slices raw into frames with a frameReader fed size-byte
// chunks, skipping a leading client preface as ServeConn does.
func readFrames(raw []byte, size int) []rawFrame {
	r := &frameReader{s: &byteStream{in: raw, size: size}}
	if bytes.HasPrefix(raw, []byte(ClientPreface)) && !r.skip(len(ClientPreface)) {
		return nil
	}
	var out []rawFrame
	for {
		fr, ok := r.next()
		if !ok {
			return out
		}
		out = append(out, fr)
	}
}
