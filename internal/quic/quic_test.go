package quic

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

type env struct {
	w        *sim.World
	net      *netem.Network
	client   *netem.Host
	server   *netem.Host
	identity *tlsmini.Identity
	cache    *tlsmini.SessionCache
	store    *tlsmini.TicketStore
	rng      *rand.Rand
	rtt      time.Duration
}

func newEnv(seed int64, rtt time.Duration, loss float64) *env {
	w := sim.NewWorld(seed)
	n := netem.NewNetwork(w)
	c := n.Host(netip.MustParseAddr("10.0.0.1"))
	s := n.Host(netip.MustParseAddr("10.0.0.2"))
	n.SetSymmetricPath(c.Addr(), s.Addr(), netem.PathParams{Delay: rtt / 2, Loss: loss})
	rng := rand.New(rand.NewSource(seed))
	return &env{
		w: w, net: n, client: c, server: s,
		identity: tlsmini.GenerateIdentity(rng, "resolver.example", 1000),
		cache:    tlsmini.NewSessionCache(),
		store:    tlsmini.NewTicketStore(),
		rng:      rng,
		rtt:      rtt,
	}
}

func (e *env) serverCfg() Config {
	return Config{
		ALPN:        []string{"doq"},
		Identity:    e.identity,
		TicketStore: e.store,
		TokenKey:    []byte("server-token-key"),
		Rand:        e.rng,
		Now:         e.w.Now,
	}
}

func (e *env) clientCfg() Config {
	return Config{
		ALPN:         []string{"doq"},
		ServerName:   "resolver.example",
		SessionCache: e.cache,
		Rand:         e.rng,
		Now:          e.w.Now,
	}
}

// startEchoServer runs a stream-echo DoQ-style server.
func (e *env) startEchoServer(t testing.TB, cfg Config) *Listener {
	t.Helper()
	l, err := Listen(e.server, 853, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.w.Go(func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			e.w.Go(func() {
				for {
					st, ok := conn.AcceptStream()
					if !ok {
						return
					}
					e.w.Go(func() {
						data, ok := st.ReadAll()
						if ok {
							st.Write(append([]byte("echo:"), data...), true)
						}
					})
				}
			})
		}
	})
	return l
}

func TestHandshakeOneRTT(t *testing.T) {
	e := newEnv(1, 100*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	var hsTime time.Duration
	e.w.Go(func() {
		start := e.w.Now()
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		hsTime = e.w.Now() - start
		c.Close()
	})
	e.w.Run()
	// QUIC combines transport and crypto: handshake completes in 1 RTT.
	if hsTime < e.rtt || hsTime > e.rtt+10*time.Millisecond {
		t.Errorf("handshake took %v, want ~%v (1 RTT)", hsTime, e.rtt)
	}
}

func TestStreamEcho(t *testing.T) {
	e := newEnv(2, 40*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	var got []byte
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		st := c.OpenStream()
		st.Write([]byte("query"), true)
		got, _ = st.ReadAll()
		c.Close()
	})
	e.w.Run()
	if !bytes.Equal(got, []byte("echo:query")) {
		t.Errorf("got %q", got)
	}
}

func TestMultipleStreamsOneConnection(t *testing.T) {
	e := newEnv(3, 30*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	results := make([][]byte, 5)
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		wg := sim.NewWaitGroup(e.w)
		for i := 0; i < 5; i++ {
			i := i
			wg.Add(1)
			st := c.OpenStream()
			e.w.Go(func() {
				defer wg.Done()
				st.Write([]byte{byte('a' + i)}, true)
				results[i], _ = st.ReadAll()
			})
		}
		wg.Wait()
		c.Close()
	})
	e.w.Run()
	for i, r := range results {
		want := []byte{'e', 'c', 'h', 'o', ':', byte('a' + i)}
		if !bytes.Equal(r, want) {
			t.Errorf("stream %d: got %q want %q", i, r, want)
		}
	}
}

func TestInitialDatagramPadded(t *testing.T) {
	e := newEnv(4, 10*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		tx, rx := c.HandshakeStats()
		// The client's first flight is a single padded Initial datagram:
		// at least 1200 bytes + UDP header. The server's reply contains a
		// padded Initial too.
		if tx < MinInitialDatagram+udpOverhead {
			t.Errorf("handshake tx = %d, want >= %d", tx, MinInitialDatagram+udpOverhead)
		}
		if rx < MinInitialDatagram+udpOverhead {
			t.Errorf("handshake rx = %d, want >= %d", rx, MinInitialDatagram+udpOverhead)
		}
		c.Close()
	})
	e.w.Run()
}

func TestSessionResumptionAndToken(t *testing.T) {
	e := newEnv(5, 60*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	var token []byte
	var second *Conn
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		if c.UsedResumption() {
			t.Error("first connection resumed")
		}
		// Exchange a stream so the NEW_TOKEN and ticket arrive.
		st := c.OpenStream()
		st.Write([]byte("warm"), true)
		st.ReadAll()
		token = c.NewToken()
		c.Close()

		cfg := e.clientCfg()
		cfg.Token = token
		second, err = Dial(e.client, l.Addr(), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		second.Close()
	})
	e.w.Run()
	if len(token) == 0 {
		t.Fatal("no NEW_TOKEN received")
	}
	if second == nil || !second.UsedResumption() {
		t.Error("second connection did not resume the session")
	}
}

func TestAmplificationLimitDelaysBigCertWithoutToken(t *testing.T) {
	// A certificate chain larger than 3x the client's 1200-byte Initial
	// keeps the server amplification-blocked until the client's ACK
	// arrives, costing roughly one extra RTT (the paper's preliminary-
	// work finding, resolved by Session Resumption + tokens).
	rtt := 100 * time.Millisecond
	measure := func(chain int) time.Duration {
		e := newEnv(6, rtt, 0)
		e.identity = tlsmini.GenerateIdentity(e.rng, "resolver.example", chain)
		l := e.startEchoServer(t, e.serverCfg())
		var hs time.Duration
		e.w.Go(func() {
			start := e.w.Now()
			c, err := Dial(e.client, l.Addr(), e.clientCfg())
			if err != nil {
				t.Error(err)
				return
			}
			hs = e.w.Now() - start
			c.Close()
		})
		e.w.Run()
		return hs
	}
	small := measure(1000)
	big := measure(6000)
	if small > rtt+20*time.Millisecond {
		t.Errorf("small-cert handshake = %v, want ~1 RTT", small)
	}
	if big < rtt+rtt*8/10 {
		t.Errorf("big-cert handshake = %v, want >= ~2 RTT (amplification limit)", big)
	}
}

func TestTokenLiftsAmplificationLimit(t *testing.T) {
	rtt := 100 * time.Millisecond
	e := newEnv(7, rtt, 0)
	e.identity = tlsmini.GenerateIdentity(e.rng, "resolver.example", 6000)
	l := e.startEchoServer(t, e.serverCfg())
	var first, second time.Duration
	e.w.Go(func() {
		start := e.w.Now()
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		first = e.w.Now() - start
		st := c.OpenStream()
		st.Write([]byte("warm"), true)
		st.ReadAll()
		token := c.NewToken()
		c.Close()

		cfg := e.clientCfg()
		cfg.Token = token
		start = e.w.Now()
		c2, err := Dial(e.client, l.Addr(), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		second = e.w.Now() - start
		c2.Close()
	})
	e.w.Run()
	if first < rtt*18/10 {
		t.Errorf("first handshake = %v, want ~2 RTT (amp limited)", first)
	}
	if second > rtt+20*time.Millisecond {
		t.Errorf("resumed handshake with token = %v, want ~1 RTT", second)
	}
}

func TestVersionNegotiationCostsOneRTT(t *testing.T) {
	rtt := 80 * time.Millisecond
	e := newEnv(8, rtt, 0)
	scfg := e.serverCfg()
	scfg.Versions = []uint32{VersionDraft34}
	l := e.startEchoServer(t, scfg)
	ccfg := e.clientCfg()
	ccfg.Versions = []uint32{Version1, VersionDraft34}
	var hs time.Duration
	var conn *Conn
	e.w.Go(func() {
		start := e.w.Now()
		c, err := Dial(e.client, l.Addr(), ccfg)
		if err != nil {
			t.Error(err)
			return
		}
		hs = e.w.Now() - start
		conn = c
		c.Close()
	})
	e.w.Run()
	if conn == nil {
		t.Fatal("dial failed")
	}
	if !conn.VersionNegotiated() {
		t.Error("VN round trip not flagged")
	}
	if conn.Version() != VersionDraft34 {
		t.Errorf("version = %s", VersionName(conn.Version()))
	}
	if hs < 2*rtt-10*time.Millisecond {
		t.Errorf("handshake with VN = %v, want ~2 RTT", hs)
	}
}

func TestZeroRTTQueryCompletesInOneRTT(t *testing.T) {
	rtt := 100 * time.Millisecond
	e := newEnv(9, rtt, 0)
	scfg := e.serverCfg()
	scfg.AcceptEarlyData = true
	l := e.startEchoServer(t, scfg)
	var elapsed time.Duration
	var accepted bool
	e.w.Go(func() {
		// Warm: full handshake to obtain ticket allowing early data.
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		st := c.OpenStream()
		st.Write([]byte("warm"), true)
		st.ReadAll()
		c.Close()

		cfg := e.clientCfg()
		cfg.OfferEarlyData = true
		start := e.w.Now()
		c2, err := DialEarly(e.client, l.Addr(), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		st2 := c2.OpenStream()
		st2.Write([]byte("early"), true)
		resp, ok := st2.ReadAll()
		if !ok || !bytes.Equal(resp, []byte("echo:early")) {
			t.Errorf("0-RTT response %q ok=%v", resp, ok)
		}
		elapsed = e.w.Now() - start
		accepted = c2.EarlyDataAccepted()
		c2.Close()
	})
	e.w.Run()
	if !accepted {
		t.Error("0-RTT not accepted")
	}
	if elapsed > rtt+20*time.Millisecond {
		t.Errorf("0-RTT query took %v, want ~1 RTT", elapsed)
	}
}

func TestZeroRTTRejectedReplaysAs1RTT(t *testing.T) {
	rtt := 60 * time.Millisecond
	e := newEnv(10, rtt, 0)
	// Phase 1: server that allows early data issues the ticket.
	scfg := e.serverCfg()
	scfg.AcceptEarlyData = true
	l := e.startEchoServer(t, scfg)
	var resp []byte
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		st := c.OpenStream()
		st.Write([]byte("warm"), true)
		st.ReadAll()
		c.Close()

		// Phase 2: server now refuses early data; client offers it.
		l.Close()
		scfg2 := e.serverCfg()
		scfg2.AcceptEarlyData = false
		l2 := e.startEchoServer(t, scfg2)
		cfg := e.clientCfg()
		cfg.OfferEarlyData = true
		c2, err := DialEarly(e.client, l2.Addr(), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		st2 := c2.OpenStream()
		st2.Write([]byte("early"), true)
		resp, _ = st2.ReadAll()
		c2.Close()
	})
	e.w.Run()
	if !bytes.Equal(resp, []byte("echo:early")) {
		t.Errorf("rejected 0-RTT data not replayed: got %q", resp)
	}
}

func TestLossRecoveryViaPTO(t *testing.T) {
	e := newEnv(11, 30*time.Millisecond, 0.10)
	l := e.startEchoServer(t, e.serverCfg())
	success := 0
	const attempts = 20
	e.w.Go(func() {
		for i := 0; i < attempts; i++ {
			c, err := Dial(e.client, l.Addr(), e.clientCfg())
			if err != nil {
				continue
			}
			st := c.OpenStream()
			st.Write([]byte("q"), true)
			if resp, ok := st.ReadAll(); ok && bytes.Equal(resp, []byte("echo:q")) {
				success++
			}
			c.Close()
		}
	})
	e.w.Run()
	if success < attempts*8/10 {
		t.Errorf("only %d/%d queries succeeded under 10%% loss", success, attempts)
	}
}

func TestConnectionMigration(t *testing.T) {
	e := newEnv(14, 40*time.Millisecond, 0)
	l := e.startEchoServer(t, e.serverCfg())
	var (
		got1, got2       []byte
		migrateTime      time.Duration
		oldPort, newPort uint16
		txAfter          int
	)
	e.w.Go(func() {
		c, err := Dial(e.client, l.Addr(), e.clientCfg())
		if err != nil {
			t.Error(err)
			return
		}
		st := c.OpenStream()
		st.Write([]byte("before"), true)
		got1, _ = st.ReadAll()
		txBefore, _ := c.Stats()

		oldPort = c.sock.LocalAddr().Port()
		start := e.w.Now()
		if err := c.Migrate(); err != nil {
			t.Errorf("Migrate: %v", err)
			return
		}
		migrateTime = e.w.Now() - start
		newPort = c.sock.LocalAddr().Port()

		// The server must have rebound the connection to the new path:
		// a follow-up request flows over the migrated socket.
		st2 := c.OpenStream()
		st2.Write([]byte("after"), true)
		got2, _ = st2.ReadAll()
		txAfter, _ = c.Stats()
		if txAfter <= txBefore {
			t.Errorf("Stats did not accumulate across migration: before %d, after %d", txBefore, txAfter)
		}
		c.Close()
	})
	e.w.Run()
	if !bytes.Equal(got1, []byte("echo:before")) {
		t.Errorf("pre-migration echo: got %q", got1)
	}
	if !bytes.Equal(got2, []byte("echo:after")) {
		t.Errorf("post-migration echo: got %q", got2)
	}
	if newPort == oldPort {
		t.Errorf("Migrate kept the local port %d, want a fresh socket", oldPort)
	}
	// Path validation is one round trip of PATH_CHALLENGE/PATH_RESPONSE.
	if migrateTime < e.rtt || migrateTime > e.rtt+10*time.Millisecond {
		t.Errorf("migration took %v, want ~%v (1 RTT)", migrateTime, e.rtt)
	}
}

func TestMigrationSurvivesChallengeLoss(t *testing.T) {
	// Even when packets on the new path are lost, the PTO machinery
	// retransmits PATH_CHALLENGE until validation completes.
	e := newEnv(15, 30*time.Millisecond, 0.15)
	l := e.startEchoServer(t, e.serverCfg())
	success := 0
	const attempts = 10
	e.w.Go(func() {
		for i := 0; i < attempts; i++ {
			c, err := Dial(e.client, l.Addr(), e.clientCfg())
			if err != nil {
				continue
			}
			if err := c.Migrate(); err != nil {
				c.Close()
				continue
			}
			st := c.OpenStream()
			st.Write([]byte("q"), true)
			if resp, ok := st.ReadAll(); ok && bytes.Equal(resp, []byte("echo:q")) {
				success++
			}
			c.Close()
		}
	})
	e.w.Run()
	if success < attempts*7/10 {
		t.Errorf("only %d/%d migrated queries succeeded under 15%% loss", success, attempts)
	}
}

func TestDraftVersionsWork(t *testing.T) {
	for _, v := range []uint32{Version1, VersionDraft34, VersionDraft32, VersionDraft29} {
		e := newEnv(12, 20*time.Millisecond, 0)
		scfg := e.serverCfg()
		scfg.Versions = []uint32{v}
		l := e.startEchoServer(t, scfg)
		ccfg := e.clientCfg()
		ccfg.Versions = []uint32{v}
		var got []byte
		e.w.Go(func() {
			c, err := Dial(e.client, l.Addr(), ccfg)
			if err != nil {
				t.Errorf("%s: %v", VersionName(v), err)
				return
			}
			st := c.OpenStream()
			st.Write([]byte("x"), true)
			got, _ = st.ReadAll()
			c.Close()
		})
		e.w.Run()
		if !bytes.Equal(got, []byte("echo:x")) {
			t.Errorf("%s: echo failed, got %q", VersionName(v), got)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= 1<<62 - 1 // QUIC varints carry 62 bits
		enc := appendVarint(nil, v)
		if len(enc) != varintLen(v) {
			return false
		}
		got, n, err := readVarint(enc)
		return err == nil && n == len(enc) && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFrameParseNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("parseFrames panicked on %x: %v", b, p)
			}
		}()
		parseFrames(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*frame{
		{kind: frPing},
		{kind: frAck, largestAcked: 100, firstRange: 10},
		{kind: frCrypto, offset: 5, data: []byte("crypto")},
		{kind: frNewToken, token: []byte("token-bytes")},
		{kind: frStreamBase, streamID: 4, offset: 9, data: []byte("stream"), fin: true},
		{kind: frConnClose, errorCode: 7, reason: "bye"},
		{kind: frHandshakeDone},
	}
	var buf []byte
	for _, f := range frames {
		if got := frameWireLen(f); got != len(appendFrame(nil, f)) {
			t.Errorf("frameWireLen(%#x) = %d, encoded %d", f.kind, got, len(appendFrame(nil, f)))
		}
		buf = appendFrame(buf, f)
	}
	got, err := parseFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("parsed %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		a, b := frames[i], got[i]
		if a.kind != b.kind || a.largestAcked != b.largestAcked || a.offset != b.offset ||
			a.streamID != b.streamID || a.fin != b.fin || !bytes.Equal(a.data, b.data) ||
			!bytes.Equal(a.token, b.token) || a.reason != b.reason {
			t.Errorf("frame %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestTokenValidation(t *testing.T) {
	key := []byte("k")
	a1 := netip.MustParseAddr("10.0.0.1")
	a2 := netip.MustParseAddr("10.0.0.2")
	tok := mintToken(key, a1)
	if !validToken(key, tok, a1) {
		t.Error("valid token rejected")
	}
	if validToken(key, tok, a2) {
		t.Error("token valid for wrong address")
	}
	if validToken([]byte("other"), tok, a1) {
		t.Error("token valid under wrong key")
	}
	if validToken(key, nil, a1) {
		t.Error("nil token accepted")
	}
}
