package quic

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
)

// echoDatagrams records every datagram of one handshake and stream echo
// on the simulated network: coalesced Initial+Handshake datagrams, padded
// Initials, and short-header 1-RTT packets, exactly as they cross the
// wire.
func echoDatagrams(t testing.TB) [][]byte {
	e := newEnv(3, 20*time.Millisecond, 0)
	var out [][]byte
	e.net.Trace = func(d netem.Datagram, _ time.Duration) {
		out = append(out, append([]byte(nil), d.Payload...))
	}
	l := e.startEchoServer(t, e.serverCfg())
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		st := c.OpenStream()
		st.Write([]byte("seed"), true)
		st.ReadAll()
		c.Close()
		l.Close()
	})
	e.w.Run()
	return out
}

// FuzzParsePacket runs the receive path's decoders over arbitrary
// datagrams: parseHeader on each coalesced packet, then parseFrames on
// its payload. Neither may panic, a parsed header must stay inside the
// datagram, and any frame list parseFrames accepts must re-encode to the
// length frameWireLen predicts and parse back to the same frames.
// Captured datagrams carry sealed payloads, which exercise the frame
// parser's error paths; the plaintext seeds exercise every frame kind.
func FuzzParsePacket(f *testing.F) {
	for _, d := range echoDatagrams(f) {
		f.Add(d)
	}
	var frames []byte
	for _, fr := range []*frame{
		{kind: frPadding, padLen: 3},
		{kind: frPing},
		{kind: frAck, largestAcked: 100, firstRange: 10},
		{kind: frCrypto, offset: 5, data: []byte("crypto")},
		{kind: frNewToken, token: []byte("token-bytes")},
		{kind: frStreamBase, streamID: 4, offset: 9, data: []byte("stream"), fin: true},
		{kind: frPathChallenge, pathData: [pathDataLen]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{kind: frPathResponse},
		{kind: frConnClose, errorCode: 7, reason: "bye"},
		{kind: frHandshakeDone},
	} {
		frames = appendFrame(frames, fr)
	}
	cid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	initial := appendHeader(nil, ptInitial, Version1, cid, cid, []byte("tok"), 7, len(frames))
	handshake := appendHeader(nil, ptHandshake, Version1, cid, cid, nil, 8, len(frames))
	f.Add(append(append(append(initial, frames...), handshake...), frames...))
	f.Add(append(appendHeader(nil, ptOneRTT, 0, cid, nil, nil, 9, len(frames)), frames...))
	f.Add(encodeVersionNegotiation(cid, cid, AllVersions()))

	f.Fuzz(func(t *testing.T, b []byte) {
		for len(b) > 0 {
			p, off, total, aad, err := parseHeader(b)
			if err != nil {
				return
			}
			if off > total || total > len(b) || total == 0 {
				t.Fatalf("header bounds off=%d total=%d outside %d-byte datagram", off, total, len(b))
			}
			if p.ptype == ptVersionNego {
				return
			}
			if !bytes.Equal(aad, b[:off]) {
				t.Fatalf("aad %x is not the %d header bytes", aad, off)
			}
			checkFrames(t, b[off:total])
			b = b[total:]
		}
	})
}

// checkFrames asserts the parseFrames/appendFrame fixed point on one
// packet payload.
func checkFrames(t *testing.T, payload []byte) {
	frames, err := parseFrames(payload)
	if err != nil {
		return
	}
	var enc []byte
	for _, fr := range frames {
		n := len(enc)
		enc = appendFrame(enc, fr)
		if got := len(enc) - n; got != frameWireLen(fr) {
			t.Fatalf("frame %#x encoded to %d bytes, frameWireLen says %d", fr.kind, got, frameWireLen(fr))
		}
	}
	again, err := parseFrames(enc)
	if err != nil {
		t.Fatalf("re-encoded frames do not parse: %v", err)
	}
	if !reflect.DeepEqual(frames, again) {
		t.Fatalf("frames changed across re-encoding:\n%+v\n%+v", frames, again)
	}
}
