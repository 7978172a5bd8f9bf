// Package tlsmini implements a TLS 1.3-shaped handshake protocol with a
// real HKDF-SHA256 key schedule and AES-128-GCM record protection, over
// simulation stand-ins for the public-key operations (hash-based key
// exchange and signatures with X25519/Ed25519 wire sizes; see
// simcrypto.go for why and for the security caveat).
//
// The protocol self-interoperates within this repository; it is not wire
// compatible with RFC 8446, but it preserves everything the paper
// measures: the number of round trips (one server flight in TLS 1.3, two
// in the TLS 1.2 emulation mode), session resumption via tickets with the
// standard 7-day maximum lifetime, 0-RTT early data, ALPN, and message
// sizes in the same ballpark as real stacks.
//
// The engine (Engine) is transport agnostic: internal/tcpsim carries its
// messages in a record layer (Conn), while internal/quic carries them in
// CRYPTO frames and exports traffic secrets for packet protection.
package tlsmini

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"io"
)

const hashLen = sha256.Size

var zeroHash [hashLen]byte

// hmacShort computes HMAC-SHA256(key, p1||p2||p3) for the short inputs
// of the HKDF key schedule entirely on the stack: the handshake derives
// dozens of secrets per connection, and the streaming crypto/hmac
// construction costs several heap allocations per call. Inputs that
// exceed the stack buffer fall back to crypto/hmac; outputs are
// identical either way.
func hmacShort(key, p1, p2, p3 []byte) (out [hashLen]byte) {
	total := len(p1) + len(p2) + len(p3)
	if len(key) > 64 || total > 160 {
		m := hmac.New(sha256.New, key)
		m.Write(p1)
		m.Write(p2)
		m.Write(p3)
		// Summing into out[:0] would make the named return escape to the
		// heap on every call, including the common stack path below.
		copy(out[:], m.Sum(nil))
		return out
	}
	var buf [224]byte // 64-byte padded key block + up to 160 bytes of message
	for i := range key {
		buf[i] = key[i] ^ 0x36
	}
	for i := len(key); i < 64; i++ {
		buf[i] = 0x36
	}
	n := 64
	n += copy(buf[n:], p1)
	n += copy(buf[n:], p2)
	n += copy(buf[n:], p3)
	inner := sha256.Sum256(buf[:n])
	for i := 0; i < 64; i++ {
		buf[i] ^= 0x36 ^ 0x5c // ipad block -> opad block
	}
	copy(buf[64:], inner[:])
	return sha256.Sum256(buf[:64+hashLen])
}

// hkdfExtractShort implements HKDF-Extract with SHA-256, returned by
// value.
func hkdfExtractShort(salt, ikm []byte) [hashLen]byte {
	if salt == nil {
		salt = zeroHash[:]
	}
	if ikm == nil {
		ikm = zeroHash[:]
	}
	return hmacShort(salt, ikm, nil, nil)
}

// expandBlock computes one HKDF-Expand output block,
// HMAC(prk, prev || label1 || label2 || context || counter), entirely on
// the stack for the short inputs of the TLS key schedule. Taking the
// label pieces as strings avoids both the "tls13 "+label concatenation
// and the []byte(info) conversion that a generic info parameter costs.
func expandBlock(prk, prev []byte, label1, label2 string, context []byte, counter byte) (out [hashLen]byte) {
	total := len(prev) + len(label1) + len(label2) + len(context) + 1
	if len(prk) > 64 || total > 160 {
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		io.WriteString(m, label1)
		io.WriteString(m, label2)
		m.Write(context)
		m.Write([]byte{counter})
		copy(out[:], m.Sum(nil))
		return out
	}
	var buf [224]byte // 64-byte padded key block + up to 160 bytes of message
	for i := range prk {
		buf[i] = prk[i] ^ 0x36
	}
	for i := len(prk); i < 64; i++ {
		buf[i] = 0x36
	}
	n := 64
	n += copy(buf[n:], prev)
	n += copy(buf[n:], label1)
	n += copy(buf[n:], label2)
	n += copy(buf[n:], context)
	buf[n] = counter
	n++
	inner := sha256.Sum256(buf[:n])
	for i := 0; i < 64; i++ {
		buf[i] ^= 0x36 ^ 0x5c // ipad block -> opad block
	}
	copy(buf[64:], inner[:])
	return sha256.Sum256(buf[:64+hashLen])
}

// deriveSecret is the RFC 8446 Derive-Secret analogue: expand with a
// label bound to a transcript hash. Output is always one hash block.
func deriveSecret(secret []byte, label string, transcriptHash []byte) []byte {
	block := deriveSecretShort(secret, label, transcriptHash)
	out := make([]byte, hashLen)
	copy(out, block[:])
	return out
}

// deriveSecretShort is deriveSecret returned by value — no heap output.
func deriveSecretShort(secret []byte, label string, transcriptHash []byte) [hashLen]byte {
	return expandBlock(secret, nil, "tls13 ", label, transcriptHash, 1)
}

// expandShort implements HKDF-Expand with SHA-256 for outputs of one
// hash block, returned by value: the whole computation stays on the
// stack. Every secret of the key schedule is at most one block long.
func expandShort(prk []byte, info string) [hashLen]byte {
	return expandBlock(prk, nil, info, "", nil, 1)
}

// trafficKeys derives the AEAD key and IV from a traffic secret. Both
// land in one backing array — the pair is always derived and retained
// together (and cached per secret by AEADCache).
func trafficKeys(secret []byte) (key, iv []byte) {
	out := make([]byte, 28)
	k := expandShort(secret, "key")
	copy(out[:16], k[:])
	i := expandShort(secret, "iv")
	copy(out[16:], i[:])
	return out[:16:16], out[16:]
}

func nonceFor(iv []byte, seq uint64) (nonce [12]byte) {
	copy(nonce[:], iv)
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	for i := 0; i < 8; i++ {
		nonce[4+i] ^= seqb[i]
	}
	return nonce
}

// aeadOverhead is the GCM tag size added to every protected record.
const aeadOverhead = 16

// AEADCache is the AES-128-GCM record protection: it memoizes the
// expanded AES-GCM state (and IV) for one traffic secret, so per-record
// protection skips the two HKDF expansions and the AES key schedule. The
// cache
// re-derives transparently whenever the secret changes (epoch bumps),
// producing byte-identical records. The zero value is ready to use; a
// cache belongs to a single connection and is not safe for concurrent
// use, like the connection itself.
type AEADCache struct {
	secret []byte
	iv     []byte
	aead   cipher.AEAD
}

func (c *AEADCache) get(secret []byte) (cipher.AEAD, []byte) {
	if c.aead == nil || !bytes.Equal(c.secret, secret) {
		key, iv := trafficKeys(secret)
		block, err := aes.NewCipher(key)
		if err != nil {
			panic(err) // key length is fixed at 16
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			panic(err)
		}
		c.secret = append(c.secret[:0], secret...)
		c.aead, c.iv = gcm, iv
	}
	return c.aead, c.iv
}

// Open decrypts and authenticates a record sealed under secret with the
// per-record nonce built from the IV and seq.
func (c *AEADCache) Open(secret []byte, seq uint64, ciphertext, aad []byte) ([]byte, error) {
	aead, iv := c.get(secret)
	nonce := nonceFor(iv, seq)
	return aead.Open(nil, nonce[:], ciphertext, aad)
}

// SealAppend appends the sealed record to dst, reusing dst's capacity;
// callers lease dst from a pool to keep record protection alloc-free.
func (c *AEADCache) SealAppend(dst, secret []byte, seq uint64, plaintext, aad []byte) []byte {
	aead, iv := c.get(secret)
	nonce := nonceFor(iv, seq)
	return aead.Seal(dst, nonce[:], plaintext, aad)
}

// hmacEqual compares MACs in constant time.
func hmacEqual(a, b []byte) bool { return hmac.Equal(a, b) }
