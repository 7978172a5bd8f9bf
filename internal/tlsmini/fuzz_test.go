package tlsmini

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeMessage checks that handshake-message parsing never panics
// on arbitrary bytes, and that any message it accepts re-encodes to a
// wire image the decoder accepts again with identical field content.
// Trailing extension padding is regenerated rather than preserved, so
// the fixed-point check runs on the re-encoded image, not the input.
func FuzzDecodeMessage(f *testing.F) {
	seed := func(m Message) { f.Add(AppendMessage(nil, m)) }
	seed(Message{Type: TypeClientHello, Body: &ClientHello{
		ServerName:        "dns.example.com",
		ALPN:              []string{"dot", "doq"},
		SupportedVersions: []Version{VersionTLS13, VersionTLS12},
		PSKTicket:         []byte("ticket-bytes"),
		EarlyData:         true,
	}})
	seed(Message{Type: TypeServerHello, Body: &ServerHello{Version: VersionTLS13, PSKAccepted: true}})
	seed(Message{Type: TypeEncryptedExtensions, Body: &EncryptedExtensions{ALPN: "doq"}})
	seed(Message{Type: TypeCertificate, Body: &Certificate{
		Name: "dns.example.com", PublicKey: []byte{1, 2, 3}, Chain: make([]byte, 900),
	}})
	seed(Message{Type: TypeCertificateVerify, Body: &CertificateVerify{Signature: make([]byte, 64)}})
	seed(Message{Type: TypeFinished, Body: &Finished{}})
	seed(Message{Type: TypeNewSessionTicket, Body: &NewSessionTicket{
		LifetimeSecs: 7200, AgeAdd: 42, Ticket: []byte("resumption"),
	}})
	seed(Message{Type: TypeClientKeyExchange, Body: &ClientKeyExchange{}})
	seed(Message{Type: TypeServerHelloDone, Body: &ServerHelloDone{}})
	// Truncations: bare header, and a length claiming more than present.
	f.Add([]byte{byte(TypeClientHello), 0, 0})
	f.Add([]byte{byte(TypeCertificate), 0, 0, 40, 1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		m1, n, err := DecodeMessage(b)
		if err != nil {
			return
		}
		if n < 4 || n > len(b) {
			t.Fatalf("consumed %d of a %d-byte input", n, len(b))
		}
		wire := AppendMessage(nil, m1)
		m2, n2, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v\nwire: %x", err, wire)
		}
		if n2 != len(wire) {
			t.Fatalf("re-decode consumed %d of %d encoded bytes", n2, len(wire))
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("round trip changed the message:\nbefore: %#v\nafter:  %#v", m1.Body, m2.Body)
		}
		wire2 := AppendMessage(nil, m2)
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %x\nsecond: %x", wire, wire2)
		}
	})
}

// fuzzStream feeds a fixed byte script to a Conn and discards writes.
type fuzzStream struct{ in [][]byte }

func (s *fuzzStream) Write(p []byte) error { return nil }
func (s *fuzzStream) Read() ([]byte, bool) {
	if len(s.in) == 0 {
		return nil, false
	}
	p := s.in[0]
	s.in = s.in[1:]
	return p, true
}
func (s *fuzzStream) Close() {}

// captureStream records a Conn's writes, used to seed the record-layer
// fuzzer with a genuine client first flight.
type captureStream struct{ out []byte }

func (s *captureStream) Write(p []byte) error { s.out = append(s.out, p...); return nil }
func (s *captureStream) Read() ([]byte, bool) { return nil, false }
func (s *captureStream) Close()               {}

// FuzzServerRecords drives a server-side Conn with arbitrary bytes as
// its inbound record stream: framing, epoch dispatch, handshake-message
// decoding and the engine state machine must all fail closed (an error,
// never a panic or a hang) on hostile input.
func FuzzServerRecords(f *testing.F) {
	var capture captureStream
	client := NewConn(&capture, Config{
		IsClient:   true,
		ServerName: "fuzz.example",
		ALPN:       []string{"dot"},
		Rand:       rand.New(rand.NewSource(2)),
	})
	_ = client.Handshake() // fails at EOF; the first flight is captured
	f.Add(capture.out)     // a genuine ClientHello record
	f.Add([]byte{recordHandshake, byte(EpochInitial), 0, 0})
	f.Add([]byte{recordAppData, byte(EpochApp), 0, 4, 1, 2, 3, 4})
	f.Add([]byte{recordHandshake, byte(EpochInitial), 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		rng := rand.New(rand.NewSource(1))
		server := NewConn(&fuzzStream{in: [][]byte{b}}, Config{
			Identity: GenerateIdentity(rng, "fuzz.example", 1200),
			ALPN:     []string{"dot"},
			Rand:     rng,
		})
		if err := server.Handshake(); err != nil {
			return
		}
		// A completed handshake from fuzzed bytes would mean the
		// transcript MAC verified against an unauthenticated flight.
		t.Fatalf("server handshake completed on fuzzed input: %x", b)
	})
}
