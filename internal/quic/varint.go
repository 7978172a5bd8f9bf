// Package quic implements a QUIC v1-shaped transport over netem,
// reproducing every QUIC mechanism the paper's measurements depend on:
//
//   - the combined 1-RTT transport+crypto handshake (via internal/tlsmini
//     carried in CRYPTO frames),
//   - 1200-byte padding of datagrams carrying Initial packets,
//   - the 3x traffic-amplification limit on unvalidated servers (which
//     delays handshakes with large certificate chains by one RTT unless
//     an address-validation token is presented — the paper's §3.1
//     preliminary-work comparison),
//   - NEW_TOKEN address validation and Version Negotiation (both cached
//     by clients across connections, per the DoQ RFC 9250 guidance),
//   - PTO-based loss recovery with the ~1s initial timeout (RFC 9002),
//   - session resumption and 0-RTT through the TLS engine,
//   - bidirectional streams (one DNS query per stream, per RFC 9250).
//
// Packets are AEAD-protected with keys derived per epoch; header
// protection is not modeled (it does not affect timing or sizes beyond a
// few bytes).
package quic

import "errors"

// AppendVarint appends QUIC's variable-length integer encoding of v
// (RFC 9000 §16): the two most significant bits of the first byte give
// the length. Exported for internal/h3, whose frames reuse the QUIC
// varint exactly as RFC 9114 specifies.
func AppendVarint(b []byte, v uint64) []byte { return appendVarint(b, v) }

// ReadVarint decodes a varint from b, returning the value and the number
// of bytes consumed.
func ReadVarint(b []byte) (uint64, int, error) { return readVarint(b) }

// Varint implements QUIC's variable-length integer encoding (RFC 9000
// §16): the two most significant bits of the first byte give the length.
func appendVarint(b []byte, v uint64) []byte {
	switch {
	case v < 1<<6:
		return append(b, byte(v))
	case v < 1<<14:
		return append(b, byte(v>>8)|0x40, byte(v))
	case v < 1<<30:
		return append(b, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	default:
		return append(b, byte(v>>56)|0xc0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

var errVarint = errors.New("quic: truncated varint")

// readVarint decodes a varint from b, returning the value and bytes
// consumed.
func readVarint(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, errVarint
	}
	n := 1 << (b[0] >> 6)
	if len(b) < n {
		return 0, 0, errVarint
	}
	v := uint64(b[0] & 0x3f)
	for i := 1; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, n, nil
}

func varintLen(v uint64) int {
	switch {
	case v < 1<<6:
		return 1
	case v < 1<<14:
		return 2
	case v < 1<<30:
		return 4
	default:
		return 8
	}
}
