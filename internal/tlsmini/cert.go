package tlsmini

import (
	"math/rand"
	"time"
)

// Identity is a server certificate with its private key. Chain models the
// full certificate chain as sent on the wire: real chains observed at
// public resolvers range from ~800 bytes to several kilobytes, which is
// what makes QUIC's traffic-amplification limit bite for some resolvers
// (paper §3.1). Keys follow the Ed25519 layout (32-byte public key,
// seed||public 64-byte private key, 64-byte signatures) but are the
// simulation stand-ins of simcrypto.go.
type Identity struct {
	Name       string
	PublicKey  []byte
	PrivateKey []byte
	Chain      []byte
}

// GenerateIdentity creates a server identity whose chain blob has the
// given total size. chainSize values below the minimal encoding are
// clamped.
func GenerateIdentity(rng *rand.Rand, name string, chainSize int) *Identity {
	// Draw exactly 32 bytes, matching what ed25519.GenerateKey consumed
	// from rng in earlier versions, to keep the deterministic stream
	// aligned.
	var seed [32]byte
	rng.Read(seed[:])
	pub := simSigKey(seed)
	priv := make([]byte, 64)
	copy(priv, seed[:])
	copy(priv[32:], pub[:])
	minSize := len(name) + sigPublicKeySize + sigSize + 16
	if chainSize < minSize {
		chainSize = minSize
	}
	chain := make([]byte, chainSize)
	copy(chain, name)
	copy(chain[len(name):], pub[:])
	rng.Read(chain[len(name)+len(pub):])
	return &Identity{Name: name, PublicKey: priv[32:], PrivateKey: priv, Chain: chain}
}

// Session is a resumable TLS session as seen by the client.
type Session struct {
	ServerName string
	Ticket     []byte
	Secret     []byte // resumption PSK
	ALPN       string
	IssuedAt   time.Duration // virtual time
	Lifetime   time.Duration
	EarlyData  bool // server allows 0-RTT with this ticket
}

// Expired reports whether the session is no longer usable at now.
func (s *Session) Expired(now time.Duration) bool {
	return now-s.IssuedAt > s.Lifetime
}

// SessionCache stores client-side sessions keyed by server name. The
// zero value is not usable; use NewSessionCache.
type SessionCache struct {
	m map[string]*Session
}

// NewSessionCache returns an empty cache.
func NewSessionCache() *SessionCache { return &SessionCache{m: make(map[string]*Session)} }

// Get returns a non-expired session for serverName, if any.
func (c *SessionCache) Get(serverName string, now time.Duration) *Session {
	s := c.m[serverName]
	if s == nil || s.Expired(now) {
		return nil
	}
	return s
}

// Put stores (replacing) the session for its server name.
func (c *SessionCache) Put(s *Session) { c.m[s.ServerName] = s }

// Len reports the number of cached sessions.
func (c *SessionCache) Len() int { return len(c.m) }

// ticketState is the server-side view of an issued ticket.
type ticketState struct {
	secret    []byte
	alpn      string
	issuedAt  time.Duration
	lifetime  time.Duration
	earlyData bool
}

// TicketStore holds server-side resumption state.
type TicketStore struct {
	m map[string]*ticketState
}

// NewTicketStore returns an empty store.
func NewTicketStore() *TicketStore { return &TicketStore{m: make(map[string]*ticketState)} }

func (t *TicketStore) put(ticket []byte, st *ticketState) { t.m[string(ticket)] = st }

func (t *TicketStore) get(ticket []byte, now time.Duration) *ticketState {
	st := t.m[string(ticket)]
	if st == nil || now-st.issuedAt > st.lifetime {
		return nil
	}
	return st
}

// Len reports the number of live tickets.
func (t *TicketStore) Len() int { return len(t.m) }
