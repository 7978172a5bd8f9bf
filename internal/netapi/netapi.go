// Package netapi is the backend seam between protocol clients and the
// runtime they execute on. It captures everything the DoX transports,
// the HTTP layers and the stub proxy used to take directly from the
// simulation kernel — datagram and stream sockets, timers, one-shot
// completion events, clocks and seeded randomness — as a set of narrow
// interfaces, so the identical client code can run on two backends:
//
//   - netapi/simnet adapts the deterministic virtual-time stack
//     (internal/sim + internal/netem). It is a pure pass-through: every
//     kernel call a client makes through the seam is the same call, in
//     the same order, it made before the seam existed, which is what
//     keeps the committed experiment reports byte-identical.
//   - netapi/livenet binds the same interfaces to real sockets
//     (net UDP/TCP, crypto/tls) and the wall clock, turning the
//     reproduction's clients into a measurement tool for Do53 and DoT
//     against live resolvers.
//
// The seam is deliberately minimal: it is the intersection of what the
// protocol packages need, not a general networking API. Capabilities
// only one backend can provide (QUIC dial/listen, which exist only on
// the sim stack; HTTP round trips, which livenet serves through
// net/http) are structural assertions against the concrete backend, not
// part of Backend. See DESIGN.md §10 for the surface, the determinism
// boundary, and what livenet supports.
package netapi

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/bytepool"
	"repro/internal/tlsmini"
)

// Runtime is the scheduling and time surface of a backend: the subset
// of the simulation kernel protocol code is allowed to see. On simnet
// every method is the corresponding sim.World call; on livenet it is
// the Go runtime and the wall clock.
type Runtime interface {
	// Now returns the backend's monotonic clock (virtual time on simnet,
	// time since backend creation on livenet).
	Now() time.Duration
	// Sleep blocks the calling task for d.
	Sleep(d time.Duration)
	// Go spawns fn as a concurrent task.
	Go(fn func())
	// GoCall spawns fn(arg) as a concurrent task without allocating a
	// closure when fn is a top-level func and arg is pointer-shaped.
	// Per-request spawns go through Spawner, which pairs it with a
	// free list of argument boxes.
	GoCall(fn func(any), arg any)
	// AfterFunc runs fn as a new task after d.
	AfterFunc(d time.Duration, fn func()) Timer
	// Rand returns the backend's seeded random stream.
	Rand() *rand.Rand
	// NewEvent creates a one-shot completion event. name appears in
	// deadlock diagnostics on the sim backend.
	NewEvent(name string) Event
	// NewGroup creates a task completion group.
	NewGroup() Group
	// NewLock guards state shared between a client and its receive path
	// (pending-query maps). Sim tasks are cooperatively scheduled and
	// never preempted inside a critical section, so the sim lock is a
	// no-op; livenet returns a real mutex.
	NewLock() sync.Locker
}

// Timer is a pending AfterFunc. Stop reports whether the call was
// prevented from firing.
type Timer interface {
	Stop() bool
}

// Event is a one-shot completion: exactly one Complete call, any number
// of waiters. Wait reports the ok value passed to Complete; ok=false
// means the operation the event tracks was abandoned. WaitTimeout
// additionally returns false when the deadline passes first. On the sim
// backend waiting parks the task on the kernel; on livenet it blocks
// the goroutine.
type Event interface {
	Complete(ok bool)
	Wait() bool
	WaitTimeout(d time.Duration) bool
}

// Group tracks a set of concurrent tasks (the WaitGroup shape).
type Group interface {
	Add(n int)
	Done()
	Wait()
}

// Packet is one received datagram: the peer it came from and its
// payload. Payloads received from a PacketConn are leased from the
// conn's pool; the receiver must Put them back once decoded.
type Packet struct {
	Src     netip.AddrPort
	Payload []byte
	// Reject marks an active network rejection (ICMP-style unreachable)
	// instead of a payload: Payload is nil, and the receiver should fail
	// in-flight operations toward Src immediately rather than waiting
	// for a timeout. Only backends with a middlebox model (simnet over
	// netem policies) ever set it.
	Reject bool
}

// PacketConn is an unconnected datagram socket.
type PacketConn interface {
	LocalAddr() netip.AddrPort
	// Send transmits payload to dst. The conn takes ownership of
	// payload (pool lease discipline: a pooled buffer handed to Send
	// must not be touched again).
	Send(dst netip.AddrPort, payload []byte)
	// Handle installs the conn's receive handler, once, before any
	// datagram arrives. recv is called for every datagram, in arrival
	// order, and owns its payload; it must not block. On simnet it runs
	// inline in the scheduler at the datagram's delivery instant; on
	// livenet it runs on the conn's read goroutine. closed, if non-nil,
	// runs once after the conn is closed, as a task of its own; recv is
	// never called after closed.
	Handle(recv func(Packet), closed func())
	// Recv blocks for the next datagram; ok is false once the conn is
	// closed. A conn with a handler delivers nothing to Recv.
	Recv() (Packet, bool)
	// RecvTimeout is Recv with a deadline; ok is false on timeout or
	// close.
	RecvTimeout(d time.Duration) (Packet, bool)
	Close()
	// Pool is the buffer pool receive payloads are leased from.
	Pool() *bytepool.Pool
	// Snapshot returns cumulative wire bytes sent and received.
	Snapshot() (tx, rx int)
}

// StreamConn is a connected, reliable byte stream (TCP or its sim
// equivalent). Read returns the next chunk; ok is false at EOF. The
// interface is a superset of tlsmini.Stream, so a StreamConn can carry
// a sim TLS session directly.
type StreamConn interface {
	Write(p []byte) error
	Read() ([]byte, bool)
	Close()
	RemoteAddr() netip.AddrPort
	// Stats returns cumulative wire bytes sent and received, including
	// transport framing.
	Stats() (tx, rx int)
}

// StreamListener accepts inbound stream connections.
type StreamListener interface {
	Accept() (StreamConn, bool)
	Addr() netip.AddrPort
	Close()
}

// TLSConfig parameterizes a client TLS session over the seam. The
// backend maps it onto its TLS implementation (tlsmini on simnet,
// crypto/tls on livenet).
type TLSConfig struct {
	ServerName string
	ALPN       []string
	// SessionCache enables session resumption across connections.
	SessionCache *tlsmini.SessionCache
	// InsecureSkipVerify disables certificate verification on backends
	// that verify (livenet); the sim backend's certificates are modeled
	// and never verified.
	InsecureSkipVerify bool
}

// TLSConn is an established client TLS session: the stream surface plus
// the negotiated-session facts the measurements record. Stats reports
// the underlying transport's wire bytes (so handshake byte accounting
// matches the pre-seam clients).
type TLSConn interface {
	StreamConn
	TLSVersion() tlsmini.Version
	Resumed() bool
}

// Backend is a complete client/server networking substrate: scheduling
// plus socket construction. overhead is the per-datagram wire framing
// (UDP+IP header bytes) counted by Snapshot.
type Backend interface {
	Runtime
	DialUDP(overhead int) (PacketConn, error)
	ListenUDP(port uint16, overhead int) (PacketConn, error)
	DialStream(raddr netip.AddrPort) (StreamConn, error)
	ListenStream(port uint16) (StreamListener, error)
	// DialTLS dials a stream to raddr and completes a client TLS
	// handshake over it.
	DialTLS(raddr netip.AddrPort, cfg TLSConfig) (TLSConn, error)
	// AccessDelay is the one-way last-mile latency of the backend's
	// access link (zero without a modeled link).
	AccessDelay() time.Duration
	// OccupyDown reserves the downlink for a bulk transfer of size
	// bytes and returns the time until it completes. Backends without a
	// shared downlink model serialize at DefaultDownloadRate.
	OccupyDown(size int) time.Duration
}

// DefaultDownloadRate is the analytic bulk-download rate (bytes/second)
// OccupyDown assumes on backends without a shared downlink model:
// 50 Mbit/s, matching netem's historical assumption.
const DefaultDownloadRate = 6.25e6
