package tlsmini

// This file exports the record-protection primitives for use by
// internal/quic, which performs its own packet protection with secrets
// obtained from Engine.TrafficSecret.

// AEADOverhead is the tag size AEADCache.SealAppend appends.
const AEADOverhead = aeadOverhead

// HMACShort computes HMAC-SHA256(key, p1||p2) entirely on the stack for
// short inputs (internal/quic's initial-secret and header-protection
// derivations run once per connection and used to pay crypto/hmac's
// per-call allocations).
func HMACShort(key, p1, p2 []byte) [32]byte { return hmacShort(key, p1, p2, nil) }
