package tlsmini

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Epoch identifies the key space a handshake message or application
// record belongs to. QUIC maps epochs onto packet number spaces.
type Epoch uint8

// Epochs in handshake order.
const (
	EpochInitial   Epoch = iota // plaintext / QUIC Initial keys
	EpochEarly                  // 0-RTT keys
	EpochHandshake              // handshake keys
	EpochApp                    // 1-RTT application keys
)

func (e Epoch) String() string {
	switch e {
	case EpochInitial:
		return "initial"
	case EpochEarly:
		return "early"
	case EpochHandshake:
		return "handshake"
	case EpochApp:
		return "app"
	}
	return fmt.Sprintf("Epoch(%d)", uint8(e))
}

// MsgType identifies a handshake message.
type MsgType uint8

// Handshake message types (TLS 1.3 numbering where applicable).
const (
	TypeClientHello         MsgType = 1
	TypeServerHello         MsgType = 2
	TypeNewSessionTicket    MsgType = 4
	TypeEncryptedExtensions MsgType = 8
	TypeCertificate         MsgType = 11
	TypeServerHelloDone     MsgType = 14 // TLS 1.2 emulation
	TypeCertificateVerify   MsgType = 15
	TypeClientKeyExchange   MsgType = 16 // TLS 1.2 emulation
	TypeFinished            MsgType = 20
)

// Version is the negotiated protocol version.
type Version uint16

// Supported versions.
const (
	VersionTLS12 Version = 0x0303
	VersionTLS13 Version = 0x0304
)

func (v Version) String() string {
	switch v {
	case VersionTLS12:
		return "TLS 1.2"
	case VersionTLS13:
		return "TLS 1.3"
	}
	return fmt.Sprintf("Version(%#04x)", uint16(v))
}

// Message is a decoded handshake message paired with the epoch it must be
// carried in.
type Message struct {
	Type  MsgType
	Epoch Epoch
	Body  any
}

// chExtensionPad approximates the extensions real ClientHellos carry that
// this implementation does not model individually (supported_groups,
// signature_algorithms, status_request, renegotiation_info, GREASE, ...).
const chExtensionPad = 60

// ClientHello opens the handshake.
type ClientHello struct {
	Random            [32]byte
	SessionID         [32]byte
	ServerName        string
	ALPN              []string
	KeyShare          [32]byte // X25519 public key
	SupportedVersions []Version
	PSKTicket         []byte   // non-nil when offering resumption
	PSKBinder         [32]byte // authenticates the PSK offer
	EarlyData         bool     // 0-RTT offered
}

// ServerHello answers a ClientHello.
type ServerHello struct {
	Random      [32]byte
	KeyShare    [32]byte
	Version     Version
	PSKAccepted bool
}

// EncryptedExtensions carries the negotiated ALPN and the 0-RTT verdict.
type EncryptedExtensions struct {
	ALPN              string
	EarlyDataAccepted bool
}

// Certificate carries the server identity. Chain is the certificate chain
// blob; its size models real chain sizes (the paper's amplification-limit
// finding depends on it).
type Certificate struct {
	Name      string
	PublicKey []byte // Ed25519
	Chain     []byte
}

// CertificateVerify proves possession of the certificate key.
type CertificateVerify struct {
	Signature []byte // Ed25519 over the transcript hash
}

// Finished authenticates the handshake transcript.
type Finished struct {
	VerifyData [32]byte
}

// NewSessionTicket provisions a resumption ticket (post-handshake).
type NewSessionTicket struct {
	LifetimeSecs     uint32
	AgeAdd           uint32
	Nonce            [8]byte
	Ticket           []byte
	EarlyDataAllowed bool
}

// ClientKeyExchange is the TLS 1.2 emulation's second client flight.
type ClientKeyExchange struct {
	KeyShare [32]byte
}

// ServerHelloDone ends the TLS 1.2 emulation's first server flight.
type ServerHelloDone struct{}

var errTruncated = errors.New("tlsmini: truncated handshake message")

// AppendMessage appends the message, serialized as type(1) || len(3) ||
// body, to dst and returns the
// extended slice, reusing dst's capacity; the hot encoders (transcript
// hashing, record flights, QUIC crypto streams) pass a per-connection
// scratch buffer so steady-state encoding does not allocate.
func AppendMessage(dst []byte, m Message) []byte {
	b := builder{out: append(dst, byte(m.Type), 0, 0, 0)}
	bodyStart := len(b.out)
	encodeBody(&b, m)
	n := len(b.out) - bodyStart
	b.out[bodyStart-3] = byte(n >> 16)
	b.out[bodyStart-2] = byte(n >> 8)
	b.out[bodyStart-1] = byte(n)
	return b.out
}

func encodeBody(b *builder, m Message) {
	switch v := m.Body.(type) {
	case *ClientHello:
		b.bytes(v.Random[:])
		b.bytes(v.SessionID[:])
		b.vec8([]byte(v.ServerName))
		b.u8(uint8(len(v.ALPN)))
		for _, a := range v.ALPN {
			b.vec8([]byte(a))
		}
		b.bytes(v.KeyShare[:])
		b.u8(uint8(len(v.SupportedVersions)))
		for _, sv := range v.SupportedVersions {
			b.u16(uint16(sv))
		}
		b.vec16(v.PSKTicket)
		if len(v.PSKTicket) > 0 {
			b.bytes(v.PSKBinder[:])
		}
		b.bool(v.EarlyData)
		b.bytes(make([]byte, chExtensionPad))
	case *ServerHello:
		b.bytes(v.Random[:])
		b.bytes(v.KeyShare[:])
		b.u16(uint16(v.Version))
		b.bool(v.PSKAccepted)
		b.bytes(make([]byte, 14)) // legacy session id echo + cipher + ext framing
	case *EncryptedExtensions:
		b.vec8([]byte(v.ALPN))
		b.bool(v.EarlyDataAccepted)
		b.bytes(make([]byte, 12)) // misc extension framing
	case *Certificate:
		b.vec8([]byte(v.Name))
		b.vec8(v.PublicKey)
		b.vec16(v.Chain)
	case *CertificateVerify:
		b.vec16(v.Signature)
	case *Finished:
		b.bytes(v.VerifyData[:])
	case *NewSessionTicket:
		b.u32(v.LifetimeSecs)
		b.u32(v.AgeAdd)
		b.bytes(v.Nonce[:])
		b.vec16(v.Ticket)
		b.bool(v.EarlyDataAllowed)
		b.bytes(zeroExtension[:]) // extension framing
	case *ClientKeyExchange:
		b.bytes(v.KeyShare[:])
	case *ServerHelloDone:
	default:
		panic(fmt.Sprintf("tlsmini: cannot encode %T", m.Body))
	}
}

// DecodeMessage parses one message from b, returning it and the number of
// bytes consumed.
func DecodeMessage(b []byte) (Message, int, error) {
	if len(b) < 4 {
		return Message{}, 0, errTruncated
	}
	t := MsgType(b[0])
	n := int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if len(b) < 4+n {
		return Message{}, 0, errTruncated
	}
	body := b[4 : 4+n]
	m := Message{Type: t}
	p := parser{buf: body}
	switch t {
	case TypeClientHello:
		v := &ClientHello{}
		p.read(v.Random[:])
		p.read(v.SessionID[:])
		v.ServerName = string(p.vec8())
		na := p.u8()
		for i := 0; i < int(na); i++ {
			v.ALPN = append(v.ALPN, string(p.vec8()))
		}
		p.read(v.KeyShare[:])
		nv := p.u8()
		for i := 0; i < int(nv); i++ {
			v.SupportedVersions = append(v.SupportedVersions, Version(p.u16()))
		}
		v.PSKTicket = p.vec16()
		if len(v.PSKTicket) > 0 {
			p.read(v.PSKBinder[:])
		}
		v.EarlyData = p.bool()
		m.Body = v
	case TypeServerHello:
		v := &ServerHello{}
		p.read(v.Random[:])
		p.read(v.KeyShare[:])
		v.Version = Version(p.u16())
		v.PSKAccepted = p.bool()
		m.Body = v
	case TypeEncryptedExtensions:
		v := &EncryptedExtensions{}
		v.ALPN = string(p.vec8())
		v.EarlyDataAccepted = p.bool()
		m.Body = v
	case TypeCertificate:
		v := &Certificate{}
		v.Name = string(p.vec8())
		v.PublicKey = p.vec8()
		v.Chain = p.vec16()
		m.Body = v
	case TypeCertificateVerify:
		v := &CertificateVerify{}
		v.Signature = p.vec16()
		m.Body = v
	case TypeFinished:
		v := &Finished{}
		p.read(v.VerifyData[:])
		m.Body = v
	case TypeNewSessionTicket:
		v := &NewSessionTicket{}
		v.LifetimeSecs = p.u32()
		v.AgeAdd = p.u32()
		p.read(v.Nonce[:])
		v.Ticket = p.vec16()
		v.EarlyDataAllowed = p.bool()
		m.Body = v
	case TypeClientKeyExchange:
		v := &ClientKeyExchange{}
		p.read(v.KeyShare[:])
		m.Body = v
	case TypeServerHelloDone:
		m.Body = &ServerHelloDone{}
	default:
		return Message{}, 0, fmt.Errorf("tlsmini: unknown message type %d", t)
	}
	if p.err != nil {
		return Message{}, 0, p.err
	}
	return m, 4 + n, nil
}

var zeroExtension [16]byte

type builder struct{ out []byte }

func (b *builder) u8(v uint8)   { b.out = append(b.out, v) }
func (b *builder) u16(v uint16) { b.out = binary.BigEndian.AppendUint16(b.out, v) }
func (b *builder) u32(v uint32) { b.out = binary.BigEndian.AppendUint32(b.out, v) }
func (b *builder) bytes(v []byte) {
	b.out = append(b.out, v...)
}
func (b *builder) vec8(v []byte) {
	b.u8(uint8(len(v)))
	b.bytes(v)
}
func (b *builder) vec16(v []byte) {
	b.u16(uint16(len(v)))
	b.bytes(v)
}
func (b *builder) bool(v bool) {
	if v {
		b.u8(1)
	} else {
		b.u8(0)
	}
}

type parser struct {
	buf []byte
	err error
}

func (p *parser) take(n int) []byte {
	if p.err != nil || len(p.buf) < n {
		p.err = errTruncated
		return make([]byte, n)
	}
	v := p.buf[:n]
	p.buf = p.buf[n:]
	return v
}
func (p *parser) read(dst []byte) { copy(dst, p.take(len(dst))) }
func (p *parser) u8() uint8       { return p.take(1)[0] }
func (p *parser) u16() uint16     { return binary.BigEndian.Uint16(p.take(2)) }
func (p *parser) u32() uint32     { return binary.BigEndian.Uint32(p.take(4)) }
func (p *parser) vec8() []byte    { return append([]byte(nil), p.take(int(p.u8()))...) }
func (p *parser) vec16() []byte   { return append([]byte(nil), p.take(int(p.u16()))...) }
func (p *parser) bool() bool      { return p.u8() != 0 }
