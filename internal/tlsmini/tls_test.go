package tlsmini

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// pipeStream is an in-memory Stream for tests.
type pipeStream struct {
	out *sim.Queue[[]byte]
	in  *sim.Queue[[]byte]
}

func (p *pipeStream) Write(b []byte) error {
	p.out.Push(append([]byte(nil), b...))
	return nil
}
func (p *pipeStream) Read() ([]byte, bool) { return p.in.Pop() }
func (p *pipeStream) Close()               { p.out.Close() }

func pipe(w *sim.World) (a, b Stream) {
	q1 := sim.NewQueue[[]byte](w, "pipe-ab")
	q2 := sim.NewQueue[[]byte](w, "pipe-ba")
	return &pipeStream{out: q1, in: q2}, &pipeStream{out: q2, in: q1}
}

type testEnv struct {
	w        *sim.World
	identity *Identity
	cache    *SessionCache
	store    *TicketStore
	rng      *rand.Rand
}

func newEnv() *testEnv {
	w := sim.NewWorld(1)
	rng := rand.New(rand.NewSource(99))
	return &testEnv{
		w:        w,
		identity: GenerateIdentity(rng, "resolver.example", 1200),
		cache:    NewSessionCache(),
		store:    NewTicketStore(),
		rng:      rng,
	}
}

func (env *testEnv) clientCfg() Config {
	return Config{
		IsClient:     true,
		ServerName:   "resolver.example",
		ALPN:         []string{"doq"},
		SessionCache: env.cache,
		Rand:         env.rng,
		Now:          env.w.Now,
	}
}

func (env *testEnv) serverCfg() Config {
	return Config{
		ALPN:        []string{"doq", "dot"},
		Identity:    env.identity,
		TicketStore: env.store,
		Rand:        env.rng,
		Now:         env.w.Now,
	}
}

// runHandshake performs one client+server handshake over a pipe and then
// an echo exchange; it returns the client Conn for inspection.
func runHandshake(t *testing.T, env *testEnv, ccfg, scfg Config) *Conn {
	t.Helper()
	cs, ss := pipe(env.w)
	client := NewConn(cs, ccfg)
	server := NewConn(ss, scfg)
	var clientErr, serverErr error
	env.w.Go(func() {
		serverErr = server.Handshake()
		if serverErr != nil {
			return
		}
		if msg, ok := server.Read(); ok {
			server.Write(append([]byte("echo:"), msg...))
		}
	})
	env.w.Go(func() {
		clientErr = client.Handshake()
		if clientErr != nil {
			return
		}
		client.Write([]byte("hello"))
		got, ok := client.Read()
		if !ok || !bytes.Equal(got, []byte("echo:hello")) {
			clientErr = errEcho
		}
	})
	env.w.Run()
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	if clientErr != nil {
		t.Fatalf("client: %v", clientErr)
	}
	return client
}

var errEcho = errorString("echo mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFullHandshakeAndEcho(t *testing.T) {
	env := newEnv()
	c := runHandshake(t, env, env.clientCfg(), env.serverCfg())
	e := c.Engine()
	if e.NegotiatedVersion() != VersionTLS13 {
		t.Errorf("version = %v", e.NegotiatedVersion())
	}
	if e.NegotiatedALPN() != "doq" {
		t.Errorf("alpn = %q", e.NegotiatedALPN())
	}
	if e.UsedResumption() {
		t.Error("first handshake used resumption")
	}
}

func TestSessionResumption(t *testing.T) {
	env := newEnv()
	runHandshake(t, env, env.clientCfg(), env.serverCfg())
	if env.cache.Len() != 1 {
		t.Fatalf("cache has %d sessions after first handshake", env.cache.Len())
	}
	c := runHandshake(t, env, env.clientCfg(), env.serverCfg())
	if !c.Engine().UsedResumption() {
		t.Error("second handshake did not resume")
	}
}

func TestTicketExpiryPreventsResumption(t *testing.T) {
	env := newEnv()
	runHandshake(t, env, env.clientCfg(), env.serverCfg())
	// Advance virtual time past the 7-day ticket lifetime.
	env.w.Go(func() { env.w.Sleep(8 * 24 * time.Hour) })
	env.w.Run()
	c := runHandshake(t, env, env.clientCfg(), env.serverCfg())
	if c.Engine().UsedResumption() {
		t.Error("resumed with an expired ticket")
	}
}

func TestZeroRTTAcceptedWhenEnabled(t *testing.T) {
	env := newEnv()
	scfg := env.serverCfg()
	scfg.AcceptEarlyData = true
	runHandshake(t, env, env.clientCfg(), scfg)

	ccfg := env.clientCfg()
	ccfg.OfferEarlyData = true
	cs, ss := pipe(env.w)
	client := NewConn(cs, ccfg)
	server := NewConn(ss, scfg)
	var gotEarly []byte
	env.w.Go(func() {
		if err := server.Handshake(); err != nil {
			t.Errorf("server: %v", err)
			return
		}
		gotEarly, _ = server.Read()
	})
	env.w.Go(func() {
		// 0-RTT: write before Handshake completes.
		if flight, err := client.engine.Start(); err != nil || len(flight) == 0 {
			t.Errorf("start: %v", err)
			return
		} else if err := client.writeFlight(flight); err != nil {
			t.Errorf("write flight: %v", err)
			return
		}
		if !client.engine.EarlyDataOffered() {
			t.Error("client did not offer early data")
			return
		}
		if err := client.Write([]byte("early query")); err != nil {
			t.Errorf("early write: %v", err)
			return
		}
		// Complete the handshake so the server can verify our Finished.
		if err := client.Handshake(); err != nil {
			t.Errorf("client handshake: %v", err)
		}
	})
	env.w.Run()
	if !bytes.Equal(gotEarly, []byte("early query")) {
		t.Errorf("server got early data %q", gotEarly)
	}
	if !server.Engine().EarlyDataAccepted() {
		t.Error("server did not accept early data")
	}
}

func TestZeroRTTRejectedByDefault(t *testing.T) {
	env := newEnv()
	runHandshake(t, env, env.clientCfg(), env.serverCfg())
	ccfg := env.clientCfg()
	ccfg.OfferEarlyData = true
	c := runHandshake(t, env, ccfg, env.serverCfg())
	// The default server (like all public resolvers in the paper) issues
	// tickets without the early-data permission, so the client never even
	// offers 0-RTT.
	if c.Engine().EarlyDataAccepted() {
		t.Error("server accepted 0-RTT despite AcceptEarlyData=false")
	}
}

func TestTLS12ModeNegotiation(t *testing.T) {
	env := newEnv()
	scfg := env.serverCfg()
	scfg.Version = VersionTLS12
	c := runHandshake(t, env, env.clientCfg(), scfg)
	if got := c.Engine().NegotiatedVersion(); got != VersionTLS12 {
		t.Errorf("version = %v, want TLS 1.2", got)
	}
	if c.Engine().UsedResumption() {
		t.Error("TLS 1.2 mode resumed")
	}
}

func TestALPNMismatchFails(t *testing.T) {
	env := newEnv()
	ccfg := env.clientCfg()
	ccfg.ALPN = []string{"h2"}
	scfg := env.serverCfg() // supports doq, dot only
	cs, ss := pipe(env.w)
	client := NewConn(cs, ccfg)
	server := NewConn(ss, scfg)
	var serverErr error
	env.w.Go(func() { serverErr = server.Handshake() })
	env.w.Go(func() { client.Handshake() })
	env.w.Run()
	if serverErr == nil {
		t.Error("server accepted handshake without ALPN overlap")
	}
}

func TestMessageSizesRealistic(t *testing.T) {
	env := newEnv()
	eng := NewEngine(env.clientCfg())
	flight, err := eng.Start()
	if err != nil {
		t.Fatal(err)
	}
	ch := AppendMessage(nil, flight[0])
	// Real ClientHellos are ~250-350 bytes.
	if len(ch) < 180 || len(ch) > 420 {
		t.Errorf("ClientHello size = %d, want 180..420", len(ch))
	}
}

func TestEncodeDecodeAllMessageTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id := GenerateIdentity(rng, "x", 900)
	msgs := []Message{
		{Type: TypeClientHello, Body: &ClientHello{ServerName: "a.b", ALPN: []string{"doq", "h2"}, SupportedVersions: []Version{VersionTLS13}, PSKTicket: []byte("tick"), EarlyData: true}},
		{Type: TypeServerHello, Body: &ServerHello{Version: VersionTLS13, PSKAccepted: true}},
		{Type: TypeEncryptedExtensions, Body: &EncryptedExtensions{ALPN: "doq", EarlyDataAccepted: true}},
		{Type: TypeCertificate, Body: &Certificate{Name: "x", PublicKey: id.PublicKey, Chain: id.Chain}},
		{Type: TypeCertificateVerify, Body: &CertificateVerify{Signature: make([]byte, 64)}},
		{Type: TypeFinished, Body: &Finished{}},
		{Type: TypeNewSessionTicket, Body: &NewSessionTicket{LifetimeSecs: 604800, Ticket: []byte("ticket-bytes")}},
		{Type: TypeClientKeyExchange, Body: &ClientKeyExchange{}},
		{Type: TypeServerHelloDone, Body: &ServerHelloDone{}},
	}
	for _, m := range msgs {
		enc := AppendMessage(nil, m)
		got, n, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%d: %v", m.Type, err)
		}
		if n != len(enc) {
			t.Errorf("%d: consumed %d of %d", m.Type, n, len(enc))
		}
		if got.Type != m.Type {
			t.Errorf("type = %d, want %d", got.Type, m.Type)
		}
	}
}

func TestDecodeTruncatedMessages(t *testing.T) {
	m := Message{Type: TypeServerHello, Body: &ServerHello{Version: VersionTLS13}}
	enc := AppendMessage(nil, m)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeMessage(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestHKDFDeterministic(t *testing.T) {
	prk := hkdfExtractShort([]byte("salt"), []byte("ikm"))
	a := expandShort(prk[:], "info")
	if b := expandShort(prk[:], "info"); a != b {
		t.Error("HKDF not deterministic")
	}
	if c := expandShort(prk[:], "other"); a == c {
		t.Error("different labels produced identical output")
	}
	if other := hkdfExtractShort([]byte("pepper"), []byte("ikm")); other == prk {
		t.Error("different salts produced identical keys")
	}
}

func TestAEADRoundTripAndTamper(t *testing.T) {
	secret := bytes.Repeat([]byte{7}, hashLen)
	aad := []byte("aad")
	var c AEADCache
	ct := c.SealAppend(nil, secret, 1, []byte("secret"), aad)
	if len(ct) != len("secret")+AEADOverhead {
		t.Fatalf("sealed %d bytes, want %d", len(ct), len("secret")+AEADOverhead)
	}
	pt, err := c.Open(secret, 1, ct, aad)
	if err != nil || !bytes.Equal(pt, []byte("secret")) {
		t.Fatalf("round trip failed: %v", err)
	}
	if _, err := c.Open(secret, 2, ct, aad); err == nil {
		t.Error("wrong sequence accepted")
	}
	tampered := append([]byte(nil), ct...)
	tampered[0] ^= 1
	if _, err := c.Open(secret, 1, tampered, aad); err == nil {
		t.Error("tampered ciphertext accepted")
	}

	// A new secret (an epoch bump) must re-derive the key: the cache's
	// output then matches a fresh cache's, and the old record no longer
	// opens under the new secret.
	next := bytes.Repeat([]byte{9}, hashLen)
	var fresh AEADCache
	got := c.SealAppend(nil, next, 1, []byte("secret"), aad)
	if want := fresh.SealAppend(nil, next, 1, []byte("secret"), aad); !bytes.Equal(got, want) {
		t.Error("re-derived key seals differently from a fresh cache")
	}
	if bytes.Equal(got, ct) {
		t.Error("secret change did not change the key")
	}
	if _, err := c.Open(next, 1, ct, aad); err == nil {
		t.Error("record sealed under the old secret opened under the new one")
	}
}

func TestIdentityChainSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	id := GenerateIdentity(rng, "r.example", 3000)
	if len(id.Chain) != 3000 {
		t.Errorf("chain = %d bytes, want 3000", len(id.Chain))
	}
	tiny := GenerateIdentity(rng, "r.example", 1)
	if len(tiny.Chain) < 100 {
		t.Errorf("minimal chain = %d bytes, implausibly small", len(tiny.Chain))
	}
}

func TestSessionCacheExpiry(t *testing.T) {
	c := NewSessionCache()
	c.Put(&Session{ServerName: "a", IssuedAt: 0, Lifetime: time.Hour})
	if c.Get("a", 30*time.Minute) == nil {
		t.Error("session missing before expiry")
	}
	if c.Get("a", 2*time.Hour) != nil {
		t.Error("session returned after expiry")
	}
	if c.Get("b", 0) != nil {
		t.Error("unknown name returned a session")
	}
}
