// Package netem emulates an Internet of hosts exchanging datagrams over
// paths with configurable propagation delay, jitter, loss, and MTU, plus
// a dynamic link model: per-path bottleneck bandwidth with a bounded
// tail-drop FIFO queue, Gilbert–Elliott two-state burst loss,
// time-varying path schedules, and per-host access links drawn from
// named access-network profiles (see profiles.go).
//
// netem sits directly on top of the sim kernel: sending a datagram
// schedules its delivery at Now()+delay on the destination host's socket
// queue, where delay includes propagation, serialization through every
// bottleneck on the way (path and access links), and queueing behind
// earlier datagrams. Transport protocols (internal/tcpsim,
// internal/quic) and plain UDP applications all run over netem sockets.
//
// Byte accounting follows the paper's convention of counting IP payload
// bytes: each socket is created with a per-datagram header overhead (8 for
// UDP, 20 for the TCP-like transport) which is added to its Tx/Rx
// counters. Counters can be snapshotted to split handshake bytes from
// query/response bytes.
package netem

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// BurstLoss is a Gilbert–Elliott two-state loss model. The chain sits in
// a good or a bad state; each datagram first draws a state transition,
// then a drop with the state's loss probability. Mean burst length is
// 1/PBadGood datagrams. The zero value disables the model.
type BurstLoss struct {
	// PGoodBad is the per-datagram probability of entering the bad state.
	PGoodBad float64
	// PBadGood is the per-datagram probability of leaving the bad state.
	PBadGood float64
	// LossGood is the drop probability in the good state (usually 0).
	LossGood float64
	// LossBad is the drop probability in the bad state.
	LossBad float64
}

// Enabled reports whether the model has a reachable bad state.
func (b BurstLoss) Enabled() bool { return b.PGoodBad > 0 && b.PBadGood > 0 }

// PathParams describes one direction of a network path.
type PathParams struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the independent per-datagram drop probability in [0, 1).
	Loss float64
	// Burst adds Gilbert–Elliott burst loss on top of (or instead of)
	// the independent Loss. Burst state is kept per directional path and
	// survives schedule changes, so a bad burst can straddle a phase
	// boundary exactly like a real fade.
	Burst BurstLoss
	// MTU caps the datagram payload size; larger datagrams are dropped.
	// Zero means 1500.
	MTU int
	// Bandwidth is the bottleneck rate in bytes/second. Zero means
	// infinitely fast (no serialization delay, no queue). A positive
	// value serializes every datagram through a FIFO queue on virtual
	// time: a datagram departs at max(now, link busy-until) + size/rate.
	Bandwidth float64
	// QueueBytes bounds the bottleneck queue: a datagram whose arrival
	// would push the backlog past this many bytes is tail-dropped
	// (counted in Drops.Overflow). Zero means DefaultQueueBytes.
	QueueBytes int
}

// DefaultMTU is used when PathParams.MTU is zero.
const DefaultMTU = 1500

// DefaultQueueBytes is the bottleneck queue bound used when
// PathParams.QueueBytes (or AccessProfile.QueueBytes) is zero: 50
// full-size datagrams, a common router default.
const DefaultQueueBytes = 50 * DefaultMTU

// PathStep is one phase of a time-varying path schedule.
type PathStep struct {
	// At is the virtual time this step takes effect.
	At time.Duration
	// Params are the path parameters in effect from At until the next
	// step (or forever, for the last step).
	Params PathParams
}

// Proto is an IP protocol number; netem keeps separate port spaces per
// protocol, like a real host.
type Proto uint8

// The two transport protocols in use.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// Datagram is a payload in flight between two endpoints.
type Datagram struct {
	Proto    Proto
	Src, Dst netip.AddrPort
	Payload  []byte
	// Reject marks a synthetic middlebox notification (an ICMP-style
	// unreachable for UDP, an injected RST for TCP) rather than a real
	// payload: Payload is nil and byte counters ignore it. Transports
	// surface it as an immediate connection-refused/reset.
	Reject bool
}

// Drops counts dropped datagrams by cause. The split matters for
// diagnostics: a loss-model drop is the network behaving as configured,
// a queue overflow means a bottleneck is saturated, and a no-route drop
// is usually a test bug.
type Drops struct {
	// Loss counts random-loss drops (independent or burst-state).
	Loss int
	// MTU counts datagrams larger than the path MTU.
	MTU int
	// NoRoute counts datagrams to unknown hosts or unbound ports.
	NoRoute int
	// Overflow counts bottleneck-queue tail drops.
	Overflow int
	// Blocked counts silent middlebox-policy drops (port blocks and UDP
	// blackholes without active rejection).
	Blocked int
	// Rejected counts middlebox-policy drops that actively notified the
	// sender (ICMP-style reject, injected RST).
	Rejected int
	// Clamped counts datagrams over a policy's ClampMTU.
	Clamped int
}

// Total sums all causes.
func (d Drops) Total() int {
	return d.Loss + d.MTU + d.NoRoute + d.Overflow + d.Blocked + d.Rejected + d.Clamped
}

// Network is the root object: a set of hosts and the paths between them.
type Network struct {
	World *sim.World

	hosts       map[netip.Addr]*Host
	defaultPath PathParams
	paths       map[pathKey]PathParams
	schedules   map[pathKey][]PathStep
	links       map[pathKey]*linkState
	access      map[netip.Addr]*accessLink
	rng         *rand.Rand

	// Middlebox policies (see policy.go). An empty map is the common
	// case: send() skips the policy lookup entirely, so campaigns that
	// install no policies draw exactly the same rng stream as before the
	// policy layer existed.
	policies map[pathKey]Policy

	// In-flight datagram pool and the two timer callbacks bound once at
	// construction: a datagram's delivery timers then allocate neither a
	// closure nor a per-datagram carrier (sim.AfterCall + free list).
	flFree    *inflight
	arriveFn  func(any)
	deliverFn func(any)

	// pool is the World's tiered buffer free list. Every payload handed
	// to Socket.Send is owned by the network (Send's no-reuse contract
	// has always required that), so drop paths return payloads here and
	// receivers release them after parsing.
	pool bytepool.Pool

	// Delivered counts delivered datagrams; Drops counts dropped ones by
	// cause (see Drops).
	Delivered int
	Drops     Drops

	// Trace, when set, observes every datagram send before the loss and
	// jitter draws. It exists for determinism debugging: diffing the
	// packet traces of two same-seed runs pinpoints the first diverging
	// event. Per-Network (not global) so that concurrent shard Worlds
	// never share a trace sink.
	Trace func(d Datagram, now time.Duration)
}

type pathKey struct{ src, dst netip.Addr }

// linkState is the mutable per-directional-link state: the FIFO clock,
// the datagram backlog bucket, and the Gilbert–Elliott chain state.
//
// busyUntil tracks all occupancy (datagrams plus OccupyDown bulk
// reservations). The tail-drop bound judges only dgBytes — the bytes
// of datagrams in the buffer, drained at link rate since dgAsOf —
// never time spent waiting behind a bulk reservation: a bulk transfer
// delays datagrams (by at most a full queue of serialization time) but
// cannot starve them out of the queue, just as a TCP download's
// in-flight bytes are capped by the same buffer the datagrams share.
// dgDepart is the last datagram's departure, the FIFO floor among
// datagrams.
type linkState struct {
	busyUntil time.Duration
	dgBytes   int
	dgAsOf    time.Duration
	dgDepart  time.Duration
	bad       bool
}

// accessLink is a host's access network: one shared bottleneck per
// direction, traversed by every non-loopback datagram the host sends or
// receives — and occupied by analytic bulk transfers (OccupyDown), so
// web content and DNS datagrams contend for the same link.
type accessLink struct {
	prof     AccessProfile
	up, down linkState
}

// NewNetwork creates an empty network on w. The default path (used when
// no explicit path is configured) has 10ms delay and no loss.
func NewNetwork(w *sim.World) *Network {
	n := &Network{
		World:       w,
		hosts:       make(map[netip.Addr]*Host),
		defaultPath: PathParams{Delay: 10 * time.Millisecond},
		paths:       make(map[pathKey]PathParams),
		schedules:   make(map[pathKey][]PathStep),
		links:       make(map[pathKey]*linkState),
		access:      make(map[netip.Addr]*accessLink),
		rng:         rand.New(rand.NewSource(w.Rand().Int63())),

		policies: make(map[pathKey]Policy),
	}
	n.arriveFn = func(a any) { n.arrive(a.(*inflight)) }
	n.deliverFn = func(a any) { n.deliverInflight(a.(*inflight)) }
	return n
}

// inflight carries a datagram between its send-time processing and its
// delivery timer(s). Pooled per Network: Worlds run one task at a time,
// so the free list needs no lock.
type inflight struct {
	d        Datagram
	wire     int
	loopback bool
	next     *inflight
}

func (n *Network) getInflight() *inflight {
	fl := n.flFree
	if fl != nil {
		n.flFree = fl.next
		fl.next = nil
		return fl
	}
	return &inflight{}
}

func (n *Network) putInflight(fl *inflight) {
	fl.d = Datagram{} // drop the payload reference
	fl.next = n.flFree
	n.flFree = fl
}

// Dropped returns the total dropped-datagram count across all causes.
func (n *Network) Dropped() int { return n.Drops.Total() }

// Pool returns the network's buffer pool. Transports lease datagram and
// record buffers here; the pool is single-World and needs no locking.
func (n *Network) Pool() *bytepool.Pool { return &n.pool }

// SetDefaultPath sets the parameters used for host pairs without an
// explicit path.
func (n *Network) SetDefaultPath(p PathParams) { n.defaultPath = p }

// SetPath sets the path parameters for datagrams from src to dst. Paths
// are directional; call twice for a symmetric configuration or use
// SetSymmetricPath.
func (n *Network) SetPath(src, dst netip.Addr, p PathParams) {
	n.paths[pathKey{src, dst}] = p
}

// SetSymmetricPath sets the same parameters in both directions.
func (n *Network) SetSymmetricPath(a, b netip.Addr, p PathParams) {
	n.SetPath(a, b, p)
	n.SetPath(b, a, p)
}

// SetPathSchedule installs a time-varying schedule on the directional
// path from src to dst: from steps[i].At (virtual time) onward the
// path uses steps[i].Params, until the next step takes over; the last
// step holds forever. Before steps[0].At the static SetPath (or
// default) parameters apply. Steps must be in ascending At order. Link
// state — queue backlog and burst-loss state — persists across steps,
// so a path can degrade and recover mid-campaign without resetting its
// bottleneck. An empty steps slice removes the schedule.
func (n *Network) SetPathSchedule(src, dst netip.Addr, steps []PathStep) {
	n.setPathSchedule(pathKey{src, dst}, append([]PathStep(nil), steps...))
}

func (n *Network) setPathSchedule(key pathKey, steps []PathStep) {
	if len(steps) == 0 {
		delete(n.schedules, key)
		return
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].At < steps[i-1].At {
			panic(fmt.Sprintf("netem: schedule steps out of order: step %d at %v after %v", i, steps[i].At, steps[i-1].At))
		}
	}
	n.schedules[key] = steps
}

// SetSymmetricPathSchedule installs the same schedule in both
// directions. The two directions share one backing slice (schedules
// are read-only once installed), so long schedules on many paths don't
// double their memory.
func (n *Network) SetSymmetricPathSchedule(a, b netip.Addr, steps []PathStep) {
	cp := append([]PathStep(nil), steps...)
	n.setPathSchedule(pathKey{a, b}, cp)
	n.setPathSchedule(pathKey{b, a}, cp)
}

// SetAccessLink attaches an access-network profile to a host: every
// non-loopback datagram the host sends traverses the profile's uplink
// (serialization + queue + loss + extra delay) and every datagram it
// receives traverses the downlink. Use AccessProfile{} to detach.
func (n *Network) SetAccessLink(addr netip.Addr, prof AccessProfile) {
	if prof == (AccessProfile{}) {
		delete(n.access, addr)
		return
	}
	n.access[addr] = &accessLink{prof: prof}
}

// AccessLink returns the host's access profile, if one is attached.
func (n *Network) AccessLink(addr netip.Addr) (AccessProfile, bool) {
	al, ok := n.access[addr]
	if !ok {
		return AccessProfile{}, false
	}
	return al.prof, true
}

// DefaultDownloadRate is the analytic bulk-download rate (bytes/second)
// OccupyDown assumes for hosts without an access link: 50 Mbit/s, the
// historical fixed assumption of internal/browser.
const DefaultDownloadRate = 6.25e6

// OccupyDown reserves the host's downlink for a bulk transfer of size
// bytes starting now and returns the time until the transfer completes
// (queueing behind whatever the downlink is already carrying, then
// serializing at the downlink rate). It models an application-layer
// byte stream with its own reliability (an HTTP response over TCP), so
// no loss or queue bound applies — but the reservation advances the
// shared downlink clock, so concurrent transfers and DNS datagrams
// contend for the same bottleneck. Hosts without an access link (or
// with an unshaped downlink) get the analytic DefaultDownloadRate with
// no shared state.
func (n *Network) OccupyDown(addr netip.Addr, size int) time.Duration {
	now := n.World.Now()
	al := n.access[addr]
	if al == nil || al.prof.Down <= 0 {
		return time.Duration(float64(size) / DefaultDownloadRate * float64(time.Second))
	}
	ser := time.Duration(float64(size) / al.prof.Down * float64(time.Second))
	depart := al.down.busyUntil
	if depart < now {
		depart = now
	}
	depart += ser
	al.down.busyUntil = depart
	return depart - now
}

// Path returns the effective parameters from src to dst at the current
// virtual time (honouring any installed schedule).
func (n *Network) Path(src, dst netip.Addr) PathParams {
	return n.PathAt(src, dst, n.World.Now())
}

// PathAt returns the effective parameters from src to dst at virtual
// time at. Schedule lookup is a binary search: send() calls this per
// datagram, and schedules can hold hundreds of steps (E20).
func (n *Network) PathAt(src, dst netip.Addr, at time.Duration) PathParams {
	key := pathKey{src, dst}
	if steps := n.schedules[key]; len(steps) > 0 && at >= steps[0].At {
		i := sort.Search(len(steps), func(i int) bool { return steps[i].At > at })
		return steps[i-1].Params
	}
	if p, ok := n.paths[key]; ok {
		return p
	}
	return n.defaultPath
}

// Host registers (or returns the existing) host with the given address.
func (n *Network) Host(addr netip.Addr) *Host {
	if h, ok := n.hosts[addr]; ok {
		return h
	}
	h := &Host{
		net:           n,
		addr:          addr,
		ports:         make(map[portKey]*Socket),
		nextEphemeral: firstEphemeral,
	}
	n.hosts[addr] = h
	return h
}

// link returns (creating on first use) the mutable state of the
// directional link identified by key.
func (n *Network) link(key pathKey) *linkState {
	ls, ok := n.links[key]
	if !ok {
		ls = &linkState{}
		n.links[key] = ls
	}
	return ls
}

// lossPass draws the loss models against ls and reports whether the
// datagram survives. The burst chain transitions first (state evolves
// whether or not the datagram is dropped), then the state's loss, then
// the independent loss.
func (n *Network) lossPass(ls *linkState, loss float64, burst BurstLoss) bool {
	if burst.Enabled() {
		if ls.bad {
			if n.rng.Float64() < burst.PBadGood {
				ls.bad = false
			}
		} else if n.rng.Float64() < burst.PGoodBad {
			ls.bad = true
		}
		p := burst.LossGood
		if ls.bad {
			p = burst.LossBad
		}
		if p > 0 && n.rng.Float64() < p {
			return false
		}
	}
	if loss > 0 && n.rng.Float64() < loss {
		return false
	}
	return true
}

// serialize pushes size bytes through a bottleneck of rate bytes/second
// with the datagram arriving at the bottleneck at arrive. It returns
// the departure time and whether the datagram fit in the queue: the
// tail-drop bound (queueBytes) judges the datagram-only backlog, while
// bulk OccupyDown reservations add waiting time capped at one full
// queue of serialization (the datagram sits behind at most queueBytes
// of the stream's bytes). rate <= 0 means an unshaped link: depart
// immediately.
func (n *Network) serialize(ls *linkState, rate float64, queueBytes int, size int, arrive time.Duration) (time.Duration, bool) {
	if rate <= 0 {
		return arrive, true
	}
	if queueBytes == 0 {
		queueBytes = DefaultQueueBytes
	}
	// Drain the datagram byte bucket at link rate. Arrivals at one link
	// are monotone in virtual time (same-pair sends are ordered, and
	// downlink legs run off a sorted timer heap).
	if arrive > ls.dgAsOf {
		ls.dgBytes -= int(float64(arrive-ls.dgAsOf) / float64(time.Second) * rate)
		if ls.dgBytes < 0 {
			ls.dgBytes = 0
		}
		ls.dgAsOf = arrive
	}
	if ls.dgBytes+size > queueBytes {
		return 0, false
	}
	ls.dgBytes += size
	// FIFO position: behind everything already admitted, but waiting
	// behind a bulk reservation is capped at one full queue of
	// serialization time; datagrams then drain serially (dgDepart).
	start := arrive
	if ls.busyUntil > start {
		start = min(ls.busyUntil, arrive+time.Duration(float64(queueBytes)/rate*float64(time.Second)))
	}
	if ls.dgDepart > start {
		start = ls.dgDepart
	}
	depart := start + time.Duration(float64(size)/rate*float64(time.Second))
	ls.dgDepart = depart
	if depart > ls.busyUntil {
		ls.busyUntil = depart
	}
	return depart, true
}

// send routes a datagram, applying the path model: loss (burst and
// independent), the bottleneck queue, access links on both ends, then
// propagation delay and jitter. Drops are counted by cause in Drops.
// wire is the datagram's on-the-wire size (payload plus the sending
// socket's per-datagram header overhead), the size the bottlenecks
// serialize — matching the package's byte-accounting convention.
//
// The uplink leg and the path bottleneck are processed at send time:
// both sit at the sender, and all traffic sharing them originates from
// the same host, so send order equals bottleneck-arrival order. The
// downlink leg is deferred to the datagram's arrival at the receiver's
// access link (a second timer): that bottleneck is shared by flows
// with different path delays, and serializing it at send time would
// queue datagrams in send order rather than in the order their bytes
// actually reach the link.
func (n *Network) send(d Datagram, wire int) {
	now := n.World.Now()
	if n.Trace != nil {
		n.Trace(d, now)
	}
	src, dst := d.Src.Addr(), d.Dst.Addr()
	key := pathKey{src, dst}
	p := n.PathAt(src, dst, now)
	if n.havePolicies() && n.policyDrop(key, d, p.Delay) {
		return
	}
	mtu := p.MTU
	if mtu == 0 {
		mtu = DefaultMTU
	}
	if len(d.Payload) > mtu {
		n.Drops.MTU++
		n.pool.Put(d.Payload)
		return
	}
	loopback := src == dst

	// Uplink leg of the sender's access network.
	at := now
	if al := n.access[src]; al != nil && !loopback {
		if !n.lossPass(&al.up, al.prof.Loss, al.prof.Burst) {
			n.Drops.Loss++
			n.pool.Put(d.Payload)
			return
		}
		depart, ok := n.serialize(&al.up, al.prof.Up, al.prof.QueueBytes, wire, at)
		if !ok {
			n.Drops.Overflow++
			n.pool.Put(d.Payload)
			return
		}
		at = depart + al.prof.ExtraDelay
	}

	// The path itself: loss models, then the bottleneck queue.
	ls := n.link(key)
	if !n.lossPass(ls, p.Loss, p.Burst) {
		n.Drops.Loss++
		n.pool.Put(d.Payload)
		return
	}
	depart, ok := n.serialize(ls, p.Bandwidth, p.QueueBytes, wire, at)
	if !ok {
		n.Drops.Overflow++
		n.pool.Put(d.Payload)
		return
	}
	at = depart + p.Delay
	if p.Jitter > 0 {
		at += time.Duration(n.rng.Int63n(int64(p.Jitter)))
	}

	fl := n.getInflight()
	fl.d, fl.wire, fl.loopback = d, wire, loopback
	n.World.AfterCall(at-now, n.arriveFn, fl)
}

// arrive processes the downlink leg of the receiver's access network,
// serialized at actual arrival time, then delivers.
func (n *Network) arrive(fl *inflight) {
	if al := n.access[fl.d.Dst.Addr()]; al != nil && !fl.loopback {
		arrive := n.World.Now()
		if !n.lossPass(&al.down, al.prof.Loss, al.prof.Burst) {
			n.Drops.Loss++
			n.pool.Put(fl.d.Payload)
			n.putInflight(fl)
			return
		}
		depart, ok := n.serialize(&al.down, al.prof.Down, al.prof.QueueBytes, fl.wire, arrive)
		if !ok {
			n.Drops.Overflow++
			n.pool.Put(fl.d.Payload)
			n.putInflight(fl)
			return
		}
		n.World.AfterCall(depart+al.prof.ExtraDelay-arrive, n.deliverFn, fl)
		return
	}
	n.deliverInflight(fl)
}

//simlint:hotpath
func (n *Network) deliverInflight(fl *inflight) {
	d := fl.d
	n.putInflight(fl)
	n.deliver(d)
}

// deliver hands a datagram to the destination socket, if any. Ownership
// of the payload transfers to the receiver, which releases it to the
// pool after parsing.
//
//simlint:hotpath
func (n *Network) deliver(d Datagram) {
	host, ok := n.hosts[d.Dst.Addr()]
	if !ok {
		if d.Reject {
			return // a notification to a vanished sender is not a drop
		}
		n.Drops.NoRoute++
		n.pool.Put(d.Payload)
		return
	}
	sock, ok := host.ports[portKey{d.Proto, d.Dst.Port()}]
	if !ok {
		if d.Reject {
			return
		}
		n.Drops.NoRoute++
		n.pool.Put(d.Payload)
		return
	}
	if !d.Reject {
		n.Delivered++
	}
	sock.deliver(d)
}

// The ephemeral port range (RFC 6335).
const (
	firstEphemeral uint16 = 49152
	ephemeralSpan  int    = 65536 - int(firstEphemeral)
)

// Host is a network endpoint with per-protocol port spaces.
type Host struct {
	net           *Network
	addr          netip.Addr
	ports         map[portKey]*Socket
	nextEphemeral uint16
}

type portKey struct {
	proto Proto
	port  uint16
}

// Addr returns the host's address.
func (h *Host) Addr() netip.Addr { return h.addr }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// World returns the simulation kernel.
func (h *Host) World() *sim.World { return h.net.World }

// Listen binds a socket to the given protocol and port. overhead is the
// per-datagram header size added to byte counters (8 for UDP; 0 for TCP,
// whose padded segment headers carry their own overhead).
func (h *Host) Listen(proto Proto, port uint16, overhead int) (*Socket, error) {
	return h.listen(proto, port, overhead, fmt.Sprintf("%v:%d", h.addr, port))
}

func (h *Host) listen(proto Proto, port uint16, overhead int, name string) (*Socket, error) {
	key := portKey{proto, port}
	if _, ok := h.ports[key]; ok {
		return nil, fmt.Errorf("netem: %d/port %d already bound on %v", proto, port, h.addr)
	}
	s := &Socket{
		host:     h,
		proto:    proto,
		local:    netip.AddrPortFrom(h.addr, port),
		overhead: overhead,
		queue:    sim.NewQueue[Datagram](h.net.World, name),
	}
	h.ports[key] = s
	return s, nil
}

// Dial binds a socket to a fresh ephemeral port. It panics with a
// diagnostic if the entire ephemeral range (49152–65535) is bound — a
// leaked-socket bug that previously spun forever.
func (h *Host) Dial(proto Proto, overhead int) *Socket {
	for tries := 0; tries < ephemeralSpan; tries++ {
		port := h.nextEphemeral
		h.nextEphemeral++
		if h.nextEphemeral == 0 {
			h.nextEphemeral = firstEphemeral
		}
		if _, ok := h.ports[portKey{proto, port}]; !ok {
			// Ephemeral sockets are created per connection on hot paths;
			// a static queue name avoids the per-conn fmt.Sprintf.
			s, _ := h.listen(proto, port, overhead, "ephemeral-sock")
			return s
		}
	}
	panic(fmt.Sprintf("netem: host %v: ephemeral port space exhausted for proto %d (%d sockets bound; leaking sockets?)",
		h.addr, proto, len(h.ports)))
}

// Socket is a bound datagram endpoint.
type Socket struct {
	host     *Host
	proto    Proto
	local    netip.AddrPort
	overhead int
	queue    *sim.Queue[Datagram]
	closed   bool

	// TxBytes and RxBytes count IP payload bytes (datagram payload plus
	// the configured per-datagram header overhead).
	TxBytes, RxBytes int
	// TxDatagrams and RxDatagrams count datagrams.
	TxDatagrams, RxDatagrams int
}

// LocalAddr returns the bound address.
func (s *Socket) LocalAddr() netip.AddrPort { return s.local }

// Pool returns the World-wide buffer pool, for leasing send buffers.
func (s *Socket) Pool() *bytepool.Pool { return &s.host.net.pool }

// Send transmits payload to dst. Ownership of the payload transfers to
// the network (it is not copied, and callers must not reuse the slice):
// the network releases it to the pool on drop, or hands it to the
// receiving socket, whose reader releases it after parsing.
//
//simlint:hotpath
func (s *Socket) Send(dst netip.AddrPort, payload []byte) {
	if s.closed {
		s.host.net.pool.Put(payload)
		return
	}
	s.TxBytes += len(payload) + s.overhead
	s.TxDatagrams++
	s.host.net.send(Datagram{Proto: s.proto, Src: s.local, Dst: dst, Payload: payload}, len(payload)+s.overhead)
}

//simlint:hotpath
func (s *Socket) deliver(d Datagram) {
	if s.closed {
		s.host.net.pool.Put(d.Payload)
		return
	}
	if !d.Reject {
		s.RxBytes += len(d.Payload) + s.overhead
		s.RxDatagrams++
	}
	s.queue.Push(d)
}

// Recv blocks until a datagram arrives. ok is false once the socket is
// closed and drained.
func (s *Socket) Recv() (Datagram, bool) { return s.queue.Pop() }

// RecvTimeout is Recv with a virtual-time deadline.
func (s *Socket) RecvTimeout(d time.Duration) (Datagram, bool) {
	return s.queue.PopTimeout(d)
}

// Close unbinds the socket and wakes blocked receivers.
func (s *Socket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.host.ports, portKey{s.proto, s.local.Port()})
	s.queue.Close()
}

// Snapshot captures the current byte counters, for splitting measurement
// phases (e.g. handshake vs. query bytes).
func (s *Socket) Snapshot() (tx, rx int) { return s.TxBytes, s.RxBytes }
