package tlsmini

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"time"
)

// DefaultTicketLifetime is the maximum session ticket lifetime of RFC
// 8446 §4.6.1; the paper observes all resolvers using it.
const DefaultTicketLifetime = 7 * 24 * time.Hour

// Config parameterizes an Engine.
type Config struct {
	IsClient   bool
	ServerName string // client: target name; ignored for servers
	ALPN       []string
	Identity   *Identity // server certificate
	// Version is the highest version to negotiate. Zero means TLS 1.3.
	Version Version
	// SessionCache enables client-side resumption when non-nil.
	SessionCache *SessionCache
	// TicketStore enables server-side resumption when non-nil.
	TicketStore *TicketStore
	// AcceptEarlyData lets the server accept 0-RTT. The paper found no
	// public resolver enabling this; it is the E11 ablation.
	AcceptEarlyData bool
	// OfferEarlyData makes the client offer 0-RTT when it has a suitable
	// session.
	OfferEarlyData bool
	// Rand is the deterministic randomness source (required).
	Rand *rand.Rand
	// Now supplies virtual time for ticket lifetimes (required when
	// resumption is used).
	Now func() time.Duration
}

func (c *Config) now() time.Duration {
	if c.Now == nil {
		return 0
	}
	return c.Now()
}

func (c *Config) maxVersion() Version {
	if c.Version == 0 {
		return VersionTLS13
	}
	return c.Version
}

// Engine is the transport-agnostic handshake state machine. Feed it
// peer messages with Handle; it returns the flight to transmit.
type Engine struct {
	cfg Config

	state      engineState
	transcript hash.Hash
	thBuf      []byte // transcriptHash output, reused across calls
	encBuf     []byte // hashMsg encode scratch, reused across calls

	dhPriv [32]byte

	version      Version
	alpn         string
	pskAccepted  bool
	earlyOffered bool
	earlyAccept  bool

	earlySecret  [hashLen]byte
	hsSecret     [hashLen]byte
	masterSecret [hashLen]byte
	hasMaster    bool

	// secrets holds the traffic secrets inline, indexed by
	// (epoch, direction): no per-secret heap slices, no map.
	secrets   [secretSlots][hashLen]byte
	secretSet [secretSlots]bool

	peerCertKey []byte       // server public key (client side)
	clientHello *ClientHello // server: retained for PSK/early decisions
	err         error
}

// secretSlots is (number of epochs) x (two directions).
const secretSlots = 8

func secretIdx(epoch Epoch, client bool) int {
	i := int(epoch) * 2
	if client {
		i++
	}
	return i
}

type engineState int

const (
	stStart engineState = iota
	stClientWaitSH
	stClientWaitEE
	stClientWaitCert
	stClientWaitCV
	stClientWaitFin
	stClientWaitCert12
	stClientWaitDone12
	stClientWaitFin12
	stServerWaitCH
	stServerWaitFin
	stServerWaitCKE12
	stServerWaitFin12
	stDone
)

// NewEngine creates an engine. Servers must set Identity.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:        cfg,
		transcript: sha256.New(),
	}
	if cfg.IsClient {
		e.state = stStart
	} else {
		e.state = stServerWaitCH
	}
	return e
}

func (e *Engine) fail(err error) error {
	e.err = err
	return err
}

// Err returns the first fatal error.
func (e *Engine) Err() error { return e.err }

// Complete reports whether the handshake has finished on this side.
func (e *Engine) Complete() bool { return e.state == stDone }

// NegotiatedALPN returns the agreed application protocol.
func (e *Engine) NegotiatedALPN() string { return e.alpn }

// NegotiatedVersion returns the agreed protocol version (valid once the
// ServerHello has been processed).
func (e *Engine) NegotiatedVersion() Version { return e.version }

// UsedResumption reports whether the handshake resumed a session.
func (e *Engine) UsedResumption() bool { return e.pskAccepted }

// EarlyDataOffered reports whether the client offered 0-RTT.
func (e *Engine) EarlyDataOffered() bool { return e.earlyOffered }

// EarlyDataAccepted reports whether 0-RTT was accepted.
func (e *Engine) EarlyDataAccepted() bool { return e.earlyAccept }

// TrafficSecret returns the traffic secret for an epoch and direction
// (client=true for client-to-server). It returns nil if not yet derived.
func (e *Engine) TrafficSecret(epoch Epoch, client bool) []byte {
	i := secretIdx(epoch, client)
	// The epoch may come straight off the wire (a record header byte);
	// an out-of-range value has no key rather than a panic.
	if i >= len(e.secretSet) || !e.secretSet[i] {
		return nil
	}
	return e.secrets[i][:]
}

func (e *Engine) setSecret(epoch Epoch, client bool, v [hashLen]byte) {
	i := secretIdx(epoch, client)
	e.secrets[i] = v
	e.secretSet[i] = true
}

func (e *Engine) hashMsg(m Message) {
	e.encBuf = AppendMessage(e.encBuf[:0], m)
	e.transcript.Write(e.encBuf)
}

// transcriptHash returns the running transcript hash in a buffer reused
// across calls; every caller consumes the bytes before the next call.
func (e *Engine) transcriptHash() []byte {
	e.thBuf = e.transcript.Sum(e.thBuf[:0])
	return e.thBuf
}

func (e *Engine) genKeyShare() [32]byte {
	// The 32-byte draw from the deterministic stream is load-bearing: it
	// matches the X25519 scalar draw of earlier versions byte for byte,
	// so every downstream random value (ticket bytes, chain padding,
	// netem jitter) stays on the same sequence.
	e.cfg.Rand.Read(e.dhPriv[:])
	return simDHPub(e.dhPriv)
}

func (e *Engine) sharedSecret(peerPub [32]byte) [32]byte {
	return simDHShared(e.dhPriv, peerPub)
}

// Start produces the client's first flight. For servers it is a no-op.
func (e *Engine) Start() ([]Message, error) {
	if !e.cfg.IsClient || e.state != stStart {
		return nil, nil
	}
	ch := &ClientHello{ServerName: e.cfg.ServerName, ALPN: e.cfg.ALPN}
	e.cfg.Rand.Read(ch.Random[:])
	e.cfg.Rand.Read(ch.SessionID[:])
	ch.KeyShare = e.genKeyShare()
	switch e.cfg.maxVersion() {
	case VersionTLS12:
		ch.SupportedVersions = []Version{VersionTLS12}
	default:
		ch.SupportedVersions = []Version{VersionTLS13, VersionTLS12}
	}

	var psk []byte
	if e.cfg.SessionCache != nil {
		if s := e.cfg.SessionCache.Get(e.cfg.ServerName, e.cfg.now()); s != nil {
			ch.PSKTicket = s.Ticket
			psk = s.Secret
			es := hkdfExtractShort(nil, psk)
			binderKey := expandShort(es[:], "binder")
			mac := hmacShort(binderKey[:], s.Ticket, nil, nil)
			copy(ch.PSKBinder[:], mac[:])
			if e.cfg.OfferEarlyData && s.EarlyData {
				ch.EarlyData = true
				e.earlyOffered = true
			}
		}
	}
	e.earlySecret = hkdfExtractShort(nil, psk)

	m := Message{Type: TypeClientHello, Epoch: EpochInitial, Body: ch}
	e.hashMsg(m)
	if e.earlyOffered {
		e.setSecret(EpochEarly, true, deriveSecretShort(e.earlySecret[:], "c e traffic", e.transcriptHash()))
	}
	e.state = stClientWaitSH
	return []Message{m}, nil
}

// Handle processes one peer message and returns this side's response
// flight (possibly empty).
func (e *Engine) Handle(m Message) ([]Message, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.cfg.IsClient {
		return e.handleClient(m)
	}
	return e.handleServer(m)
}

func (e *Engine) handleClient(m Message) ([]Message, error) {
	switch e.state {
	case stClientWaitSH:
		sh, ok := m.Body.(*ServerHello)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected ServerHello, got %d", m.Type))
		}
		e.hashMsg(m)
		e.version = sh.Version
		if sh.Version == VersionTLS12 {
			e.state = stClientWaitCert12
			return nil, nil
		}
		e.pskAccepted = sh.PSKAccepted
		if !e.pskAccepted {
			// Server declined the PSK; restart the schedule without it.
			e.earlySecret = hkdfExtractShort(nil, nil)
			e.earlyAccept = false
		}
		shared := e.sharedSecret(sh.KeyShare)
		e.deriveHandshakeSecrets(shared[:])
		e.state = stClientWaitEE
		return nil, nil

	case stClientWaitEE:
		ee, ok := m.Body.(*EncryptedExtensions)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected EncryptedExtensions, got %d", m.Type))
		}
		e.hashMsg(m)
		e.alpn = ee.ALPN
		if len(e.cfg.ALPN) > 0 && e.alpn == "" {
			return nil, e.fail(errors.New("tlsmini: server did not negotiate ALPN"))
		}
		e.earlyAccept = ee.EarlyDataAccepted && e.earlyOffered
		if e.pskAccepted {
			e.state = stClientWaitFin
		} else {
			e.state = stClientWaitCert
		}
		return nil, nil

	case stClientWaitCert:
		cert, ok := m.Body.(*Certificate)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected Certificate, got %d", m.Type))
		}
		e.hashMsg(m)
		e.peerCertKey = append([]byte(nil), cert.PublicKey...)
		e.state = stClientWaitCV
		return nil, nil

	case stClientWaitCV:
		cv, ok := m.Body.(*CertificateVerify)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected CertificateVerify, got %d", m.Type))
		}
		// Signature covers the transcript up to (excluding) this message.
		if !simVerify(e.peerCertKey, e.transcriptHash(), cv.Signature) {
			return nil, e.fail(errors.New("tlsmini: certificate verification failed"))
		}
		e.hashMsg(m)
		e.state = stClientWaitFin
		return nil, nil

	case stClientWaitFin:
		fin, ok := m.Body.(*Finished)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected Finished, got %d", m.Type))
		}
		serverHS := e.TrafficSecret(EpochHandshake, false)
		finKey := expandShort(serverHS, "finished")
		want := hmacShort(finKey[:], e.transcriptHash(), nil, nil)
		if !hmacEqual(want[:], fin.VerifyData[:]) {
			return nil, e.fail(errors.New("tlsmini: server Finished verification failed"))
		}
		e.hashMsg(m)
		e.deriveAppSecrets()

		// Client Finished.
		clientHS := e.TrafficSecret(EpochHandshake, true)
		cFinKey := expandShort(clientHS, "finished")
		cfin := &Finished{}
		cmac := hmacShort(cFinKey[:], e.transcriptHash(), nil, nil)
		copy(cfin.VerifyData[:], cmac[:])
		out := Message{Type: TypeFinished, Epoch: EpochHandshake, Body: cfin}
		e.hashMsg(out)
		e.state = stDone
		return []Message{out}, nil

	// --- TLS 1.2 emulation: one extra round trip ---
	case stClientWaitCert12:
		cert, ok := m.Body.(*Certificate)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected Certificate, got %d", m.Type))
		}
		e.hashMsg(m)
		e.peerCertKey = append([]byte(nil), cert.PublicKey...)
		e.state = stClientWaitDone12
		return nil, nil

	case stClientWaitDone12:
		if _, ok := m.Body.(*ServerHelloDone); !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected ServerHelloDone, got %d", m.Type))
		}
		e.hashMsg(m)
		cke := &ClientKeyExchange{}
		cke.KeyShare = simDHPub(e.dhPriv)
		out1 := Message{Type: TypeClientKeyExchange, Epoch: EpochInitial, Body: cke}
		e.hashMsg(out1)
		fin := &Finished{}
		lk := e.legacyKey()
		lmac := hmacShort(lk[:], e.transcriptHash(), nil, nil)
		copy(fin.VerifyData[:], lmac[:])
		out2 := Message{Type: TypeFinished, Epoch: EpochInitial, Body: fin}
		e.hashMsg(out2)
		e.state = stClientWaitFin12
		return []Message{out1, out2}, nil

	case stClientWaitFin12:
		if _, ok := m.Body.(*Finished); !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected Finished, got %d", m.Type))
		}
		e.hashMsg(m)
		e.deriveLegacyAppSecrets()
		e.state = stDone
		return nil, nil

	case stDone:
		if nst, ok := m.Body.(*NewSessionTicket); ok {
			e.hashMsg(m)
			if e.cfg.SessionCache != nil {
				resumption := deriveSecret(e.masterSecret[:], "res master", nst.Nonce[:])
				e.cfg.SessionCache.Put(&Session{
					ServerName: e.cfg.ServerName,
					Ticket:     append([]byte(nil), nst.Ticket...),
					Secret:     resumption,
					ALPN:       e.alpn,
					IssuedAt:   e.cfg.now(),
					Lifetime:   time.Duration(nst.LifetimeSecs) * time.Second,
					EarlyData:  nst.EarlyDataAllowed,
				})
			}
			return nil, nil
		}
		return nil, e.fail(fmt.Errorf("tlsmini: unexpected post-handshake message %d", m.Type))
	}
	return nil, e.fail(fmt.Errorf("tlsmini: client cannot handle message %d in state %d", m.Type, e.state))
}

func (e *Engine) handleServer(m Message) ([]Message, error) {
	switch e.state {
	case stServerWaitCH:
		ch, ok := m.Body.(*ClientHello)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected ClientHello, got %d", m.Type))
		}
		e.clientHello = ch
		// Version negotiation.
		e.version = 0
		for _, v := range ch.SupportedVersions {
			if v <= e.cfg.maxVersion() && v > e.version {
				e.version = v
			}
		}
		if e.version == 0 {
			return nil, e.fail(errors.New("tlsmini: no common version"))
		}
		// ALPN negotiation: first client preference supported here.
		if len(ch.ALPN) > 0 {
			for _, a := range ch.ALPN {
				if contains(e.cfg.ALPN, a) {
					e.alpn = a
					break
				}
			}
			if e.alpn == "" {
				return nil, e.fail(errors.New("tlsmini: no application protocol overlap"))
			}
		}
		e.hashMsg(m)
		if e.version == VersionTLS12 {
			return e.serverFlight12(ch)
		}
		return e.serverFlight13(ch)

	case stServerWaitFin:
		fin, ok := m.Body.(*Finished)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected Finished, got %d", m.Type))
		}
		clientHS := e.TrafficSecret(EpochHandshake, true)
		finKey := expandShort(clientHS, "finished")
		mac := hmacShort(finKey[:], e.transcriptHash(), nil, nil)
		if !hmacEqual(mac[:], fin.VerifyData[:]) {
			return nil, e.fail(errors.New("tlsmini: client Finished verification failed"))
		}
		e.hashMsg(m)
		e.state = stDone
		if e.cfg.TicketStore == nil {
			return nil, nil
		}
		return []Message{e.issueTicket()}, nil

	case stServerWaitCKE12:
		cke, ok := m.Body.(*ClientKeyExchange)
		if !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected ClientKeyExchange, got %d", m.Type))
		}
		e.hashMsg(m)
		// The TLS 1.2 emulation's Finished key is static (legacyKey), so
		// the shared secret itself is never consumed; nothing to derive.
		_ = cke
		e.state = stServerWaitFin12
		return nil, nil

	case stServerWaitFin12:
		if _, ok := m.Body.(*Finished); !ok {
			return nil, e.fail(fmt.Errorf("tlsmini: expected Finished, got %d", m.Type))
		}
		e.hashMsg(m)
		fin := &Finished{}
		lk := e.legacyKey()
		lmac := hmacShort(lk[:], e.transcriptHash(), nil, nil)
		copy(fin.VerifyData[:], lmac[:])
		out := Message{Type: TypeFinished, Epoch: EpochInitial, Body: fin}
		e.hashMsg(out)
		e.deriveLegacyAppSecrets()
		e.state = stDone
		return []Message{out}, nil
	}
	return nil, e.fail(fmt.Errorf("tlsmini: server cannot handle message %d in state %d", m.Type, e.state))
}

func (e *Engine) serverFlight13(ch *ClientHello) ([]Message, error) {
	// PSK decision.
	var psk []byte
	if len(ch.PSKTicket) > 0 && e.cfg.TicketStore != nil {
		if st := e.cfg.TicketStore.get(ch.PSKTicket, e.cfg.now()); st != nil {
			es := hkdfExtractShort(nil, st.secret)
			binderKey := expandShort(es[:], "binder")
			mac := hmacShort(binderKey[:], ch.PSKTicket, nil, nil)
			if hmacEqual(mac[:], ch.PSKBinder[:]) {
				psk = st.secret
				e.pskAccepted = true
				if ch.EarlyData && e.cfg.AcceptEarlyData && st.earlyData {
					e.earlyAccept = true
				}
			}
		}
	}
	e.earlySecret = hkdfExtractShort(nil, psk)
	if e.earlyAccept {
		// Early traffic secret binds to the ClientHello transcript.
		e.setSecret(EpochEarly, true, deriveSecretShort(e.earlySecret[:], "c e traffic", e.transcriptHash()))
	}

	sh := &ServerHello{Version: VersionTLS13, PSKAccepted: e.pskAccepted}
	e.cfg.Rand.Read(sh.Random[:])
	sh.KeyShare = e.genKeyShare()
	shared := e.sharedSecret(e.clientHello.KeyShare)
	mSH := Message{Type: TypeServerHello, Epoch: EpochInitial, Body: sh}
	e.hashMsg(mSH)
	e.deriveHandshakeSecrets(shared[:])

	flight := []Message{mSH}
	ee := &EncryptedExtensions{ALPN: e.alpn, EarlyDataAccepted: e.earlyAccept}
	mEE := Message{Type: TypeEncryptedExtensions, Epoch: EpochHandshake, Body: ee}
	e.hashMsg(mEE)
	flight = append(flight, mEE)

	if !e.pskAccepted {
		if e.cfg.Identity == nil {
			return nil, e.fail(errors.New("tlsmini: server has no identity"))
		}
		cert := &Certificate{
			Name:      e.cfg.Identity.Name,
			PublicKey: e.cfg.Identity.PublicKey,
			Chain:     e.cfg.Identity.Chain,
		}
		mCert := Message{Type: TypeCertificate, Epoch: EpochHandshake, Body: cert}
		e.hashMsg(mCert)
		sig := simSign(e.cfg.Identity.PrivateKey, e.transcriptHash())
		mCV := Message{Type: TypeCertificateVerify, Epoch: EpochHandshake, Body: &CertificateVerify{Signature: sig}}
		e.hashMsg(mCV)
		flight = append(flight, mCert, mCV)
	}

	serverHS := e.TrafficSecret(EpochHandshake, false)
	finKey := expandShort(serverHS, "finished")
	fin := &Finished{}
	fmac := hmacShort(finKey[:], e.transcriptHash(), nil, nil)
	copy(fin.VerifyData[:], fmac[:])
	mFin := Message{Type: TypeFinished, Epoch: EpochHandshake, Body: fin}
	e.hashMsg(mFin)
	flight = append(flight, mFin)

	e.deriveAppSecrets()
	e.state = stServerWaitFin
	return flight, nil
}

func (e *Engine) serverFlight12(ch *ClientHello) ([]Message, error) {
	if e.cfg.Identity == nil {
		return nil, e.fail(errors.New("tlsmini: server has no identity"))
	}
	sh := &ServerHello{Version: VersionTLS12}
	e.cfg.Rand.Read(sh.Random[:])
	sh.KeyShare = e.genKeyShare()
	mSH := Message{Type: TypeServerHello, Epoch: EpochInitial, Body: sh}
	e.hashMsg(mSH)
	cert := &Certificate{
		Name:      e.cfg.Identity.Name,
		PublicKey: e.cfg.Identity.PublicKey,
		Chain:     e.cfg.Identity.Chain,
	}
	mCert := Message{Type: TypeCertificate, Epoch: EpochInitial, Body: cert}
	e.hashMsg(mCert)
	mDone := Message{Type: TypeServerHelloDone, Epoch: EpochInitial, Body: &ServerHelloDone{}}
	e.hashMsg(mDone)
	e.state = stServerWaitCKE12
	return []Message{mSH, mCert, mDone}, nil
}

func (e *Engine) issueTicket() Message {
	nst := &NewSessionTicket{
		LifetimeSecs:     uint32(DefaultTicketLifetime / time.Second),
		EarlyDataAllowed: e.cfg.AcceptEarlyData,
	}
	e.cfg.Rand.Read(nst.Nonce[:])
	ticket := make([]byte, 48)
	e.cfg.Rand.Read(ticket)
	nst.Ticket = ticket
	nst.AgeAdd = e.cfg.Rand.Uint32()
	resumption := deriveSecret(e.masterSecret[:], "res master", nst.Nonce[:])
	e.cfg.TicketStore.put(ticket, &ticketState{
		secret:    resumption,
		alpn:      e.alpn,
		issuedAt:  e.cfg.now(),
		lifetime:  DefaultTicketLifetime,
		earlyData: e.cfg.AcceptEarlyData,
	})
	m := Message{Type: TypeNewSessionTicket, Epoch: EpochApp, Body: nst}
	e.hashMsg(m)
	return m
}

func (e *Engine) deriveHandshakeSecrets(shared []byte) {
	derived := deriveSecretShort(e.earlySecret[:], "derived", nil)
	e.hsSecret = hkdfExtractShort(derived[:], shared)
	th := e.transcriptHash()
	e.setSecret(EpochHandshake, true, deriveSecretShort(e.hsSecret[:], "c hs traffic", th))
	e.setSecret(EpochHandshake, false, deriveSecretShort(e.hsSecret[:], "s hs traffic", th))
	hsDerived := deriveSecretShort(e.hsSecret[:], "derived", nil)
	e.masterSecret = hkdfExtractShort(hsDerived[:], nil)
	e.hasMaster = true
}

func (e *Engine) deriveAppSecrets() {
	th := e.transcriptHash()
	e.setSecret(EpochApp, true, deriveSecretShort(e.masterSecret[:], "c ap traffic", th))
	e.setSecret(EpochApp, false, deriveSecretShort(e.masterSecret[:], "s ap traffic", th))
}

// legacyKey is the TLS 1.2 emulation's Finished key; both sides derive it
// from the ECDHE secret transcribed into the master secret.
func (e *Engine) legacyKey() [hashLen]byte {
	if !e.hasMaster {
		e.masterSecret = hkdfExtractShort(nil, []byte("legacy master"))
		e.hasMaster = true
	}
	return expandShort(e.masterSecret[:], "legacy finished")
}

func (e *Engine) deriveLegacyAppSecrets() {
	th := e.transcriptHash()
	lk := e.legacyKey()
	e.setSecret(EpochApp, true, deriveSecretShort(lk[:], "c ap traffic", th))
	e.setSecret(EpochApp, false, deriveSecretShort(lk[:], "s ap traffic", th))
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}
