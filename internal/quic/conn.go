package quic

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

// Config parameterizes connections on either side.
type Config struct {
	ALPN       []string
	ServerName string

	// TLS state.
	Identity              *tlsmini.Identity
	SessionCache          *tlsmini.SessionCache
	TicketStore           *tlsmini.TicketStore
	AcceptEarlyData       bool
	OfferEarlyData        bool
	DisableSessionTickets bool
	TLSVersion            tlsmini.Version

	// Versions lists the supported wire versions: for servers the
	// acceptance set, for clients the preference order (first is tried
	// initially). Defaults to [Version1].
	Versions []uint32

	// Token is an address-validation token from a prior connection
	// (client). Presenting it lifts the server's amplification limit
	// immediately, per RFC 9250's recommendation to reuse tokens
	// alongside session resumption.
	Token []byte
	// TokenKey mints and validates tokens (server). Nil disables
	// NEW_TOKEN issuance.
	TokenKey []byte

	Rand *rand.Rand
	Now  func() time.Duration
}

func (c *Config) versions() []uint32 {
	if len(c.Versions) == 0 {
		return []uint32{Version1}
	}
	return c.Versions
}

// Loss recovery constants (RFC 9002 flavoured). The initial PTO of one
// second is the "transport layer retransmission with initial timeouts of
// 1 second" the paper contrasts with DoUDP's 5-second stub retry.
//
// Unlike TCP's RFC 6298 RTO (which common stacks floor at 200ms —
// tcpsim.minRTO), RFC 9002 imposes no minimum on the PTO beyond timer
// granularity (kGranularity, 1ms): once an RTT sample exists the probe
// timeout tracks 2*srtt directly. This is one of the structural reasons
// DoQ recovers from loss bursts faster than the TCP-based transports on
// short-RTT paths (E20): a nearby resolver's lost datagram is probed
// after tens of milliseconds, where TCP still waits out its floor.
const (
	initialPTO = 1 * time.Second
	minPTO     = 10 * time.Millisecond
	maxPTO     = 60 * time.Second
	maxPTOs    = 8
)

// Packet number spaces.
const (
	spcInitial = iota
	spcHandshake
	spcApp
	numSpaces
)

func spaceOf(t packetType) int {
	switch t {
	case ptInitial:
		return spcInitial
	case ptHandshake:
		return spcHandshake
	default:
		return spcApp
	}
}

type sentPacket struct {
	frames       []*frame
	timeSent     time.Duration
	ackEliciting bool
}

type pnSpace struct {
	nextPN    uint64
	recvd     map[uint64]bool
	largest   uint64
	recvdAny  bool
	ackQueued bool
	sent      map[uint64]*sentPacket

	cryptoOutOffset uint64
	cryptoInNext    uint64
	cryptoPending   map[uint64][]byte
	hsBuf           []byte
}

func newSpace() *pnSpace {
	return &pnSpace{
		recvd:         make(map[uint64]bool),
		sent:          make(map[uint64]*sentPacket),
		cryptoPending: make(map[uint64][]byte),
	}
}

// Conn is a QUIC connection endpoint.
type Conn struct {
	w        *sim.World
	sock     *netem.Socket
	owned    bool
	peer     netip.AddrPort
	isClient bool
	cfg      Config

	// host lets a dialed client open a replacement socket for
	// connection migration; nil for server connections.
	host *netem.Host
	// prevTx/prevRx accumulate the byte counters of sockets retired by
	// migration, so Stats spans the connection, not the current path.
	prevTx, prevRx int
	// pathChallenge is the outstanding PATH_CHALLENGE payload;
	// pathValidated resolves when the matching PATH_RESPONSE arrives.
	pathChallenge [pathDataLen]byte
	pathValidated *sim.Future[bool]

	version uint32
	scid    []byte
	dcid    []byte

	engine        *tlsmini.Engine
	initialClient []byte // Initial-space secrets
	initialServer []byte

	spaces [numSpaces]*pnSpace

	streams      map[uint64]*Stream
	nextStreamID uint64
	acceptQ      *sim.Queue[*Stream]
	earlyStreams []*Stream // streams with data sent as 0-RTT

	// Address validation / anti-amplification (server).
	validated  bool
	recvdBytes int
	sentBytes  int
	ampQueue   [][]byte

	ptoTimer sim.Timer
	ptoFn    func() // onPTO, bound once so re-arming allocates nothing
	pto      time.Duration
	ptoCount int
	// ampPTOs counts probe timeouts fired while amplification-blocked.
	// Those don't burn the regular PTO budget (the server is waiting,
	// not losing packets), but they need their own cap: without one an
	// amplification-starved server whose client has given up re-arms
	// its probe timer forever, and the simulation never quiesces.
	ampPTOs int
	srtt    time.Duration

	dialResult *sim.Future[error]

	// Packet-protection caches: amortize the HKDF expansions and AES key
	// schedule across packets sealed/opened under the same secret.
	sealer tlsmini.AEADCache
	opener tlsmini.AEADCache
	// sendPlans/planFrames are sendInSpace's packet-plan scratch,
	// reused across calls; appendPacket copies what it retains.
	sendPlans  []sendPlan
	planFrames []*frame
	// padFrame is the reusable PADDING frame appended to Initial
	// datagrams; it is never ack-eliciting or retransmittable, so no
	// packet record retains it.
	padFrame frame
	// encBuf is the handshake-message encode scratch for
	// sendCryptoFlight; CRYPTO frames copy their chunks out of it.
	encBuf []byte
	// plainScratch is the reusable plaintext assembly buffer for
	// appendPacket (leased lazily from the socket pool, kept for the
	// connection's lifetime, returned at teardown).
	plainScratch []byte
	vnVersions   []uint32 // set when a Version Negotiation arrived
	vnHappened   bool
	newToken     []byte // token received from the server

	hsComplete   bool
	hsTx, hsRx   int
	hsCompleteAt time.Duration
	startedAt    time.Duration

	// undecryptable buffers packets that arrived before their keys
	// (reordering can deliver Handshake packets before the Initial that
	// establishes the handshake secrets); they are retried whenever the
	// key schedule advances.
	undecryptable []storedPacket

	onClose  func()
	closed   bool
	closeErr error
}

type storedPacket struct {
	p      packet
	sealed []byte
	aad    []byte
}

func newConn(w *sim.World, sock *netem.Socket, owned bool, peer netip.AddrPort, isClient bool, cfg Config, version uint32) *Conn {
	c := &Conn{
		w:          w,
		sock:       sock,
		owned:      owned,
		peer:       peer,
		isClient:   isClient,
		cfg:        cfg,
		version:    version,
		streams:    make(map[uint64]*Stream),
		acceptQ:    sim.NewQueue[*Stream](w, "quic-accept"),
		pto:        initialPTO,
		dialResult: sim.NewFuture[error](w, "quic-dial"),
		startedAt:  w.Now(),
	}
	for i := range c.spaces {
		c.spaces[i] = newSpace()
	}
	c.ptoFn = c.onPTO
	c.scid = make([]byte, cidLen)
	cfg.Rand.Read(c.scid)
	return c
}

// --- Public API ---

// WaitHandshake blocks until the handshake completes or fails.
func (c *Conn) WaitHandshake() error {
	err, ok := c.dialResult.Wait()
	if !ok {
		return errors.New("quic: connection aborted")
	}
	return err
}

// Version returns the negotiated wire version.
func (c *Conn) Version() uint32 { return c.version }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() netip.AddrPort { return c.peer }

// ALPN returns the negotiated application protocol.
func (c *Conn) ALPN() string { return c.engine.NegotiatedALPN() }

// UsedResumption reports whether the TLS session was resumed.
func (c *Conn) UsedResumption() bool { return c.engine.UsedResumption() }

// EarlyDataAccepted reports whether 0-RTT data was accepted.
func (c *Conn) EarlyDataAccepted() bool { return c.engine.EarlyDataAccepted() }

// VersionNegotiated reports whether a Version Negotiation round trip
// preceded this connection.
func (c *Conn) VersionNegotiated() bool { return c.vnHappened }

// NewToken returns the address-validation token received from the server
// (nil until the server issues one).
func (c *Conn) NewToken() []byte { return c.newToken }

// TLSVersion returns the negotiated TLS version.
func (c *Conn) TLSVersion() tlsmini.Version { return c.engine.NegotiatedVersion() }

// Stats returns total IP payload bytes sent and received on this
// connection (client side; includes the 8-byte UDP header per
// datagram, matching the paper's accounting). Counters span sockets
// retired by Migrate.
func (c *Conn) Stats() (tx, rx int) {
	return c.prevTx + c.sock.TxBytes, c.prevRx + c.sock.RxBytes
}

// HandshakeStats returns the bytes exchanged up to handshake completion.
func (c *Conn) HandshakeStats() (tx, rx int) { return c.hsTx, c.hsRx }

// HandshakeTime returns how long the handshake took.
func (c *Conn) HandshakeTime() time.Duration { return c.hsCompleteAt - c.startedAt }

// OpenStream opens the next client-initiated bidirectional stream. If the
// handshake is still in flight and 0-RTT was offered, data written to the
// stream is sent as 0-RTT.
func (c *Conn) OpenStream() *Stream {
	id := c.nextStreamID
	c.nextStreamID += 4
	s := newStream(c, id)
	c.streams[id] = s
	return s
}

// AcceptStream blocks for the next peer-initiated stream.
func (c *Conn) AcceptStream() (*Stream, bool) { return c.acceptQ.Pop() }

func (c *Conn) registerEarlyStream(s *Stream) {
	for _, e := range c.earlyStreams {
		if e == s {
			return
		}
	}
	c.earlyStreams = append(c.earlyStreams, s)
}

// Close sends CONNECTION_CLOSE and tears the connection down.
func (c *Conn) Close() { c.CloseWithError(0, "") }

// CloseWithError sends CONNECTION_CLOSE with the given code and reason.
func (c *Conn) CloseWithError(code uint64, reason string) {
	if c.closed {
		return
	}
	space := spcApp
	if !c.hsComplete {
		space = spcInitial
	}
	c.sendInSpace(space, []*frame{{kind: frConnClose, errorCode: code, reason: reason}})
	c.teardown(nil)
}

func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.ptoTimer.Stop()
	c.ptoTimer = sim.Timer{}
	if c.pathValidated != nil {
		c.pathValidated.Fail()
		c.pathValidated = nil
	}
	for _, id := range slices.Sorted(maps.Keys(c.streams)) {
		c.streams[id].shutdown()
	}
	c.acceptQ.Close()
	if !c.hsComplete {
		if err == nil {
			err = errors.New("quic: connection closed during handshake")
		}
		c.dialResult.Resolve(err)
	}
	if c.owned {
		c.sock.Close()
	}
	c.sock.Pool().Put(c.plainScratch)
	c.plainScratch = nil
	if c.onClose != nil {
		c.onClose()
	}
}

// --- Handshake driving ---

func (c *Conn) tlsConfig() tlsmini.Config {
	return tlsmini.Config{
		IsClient:              c.isClient,
		ServerName:            c.cfg.ServerName,
		ALPN:                  c.cfg.ALPN,
		Identity:              c.cfg.Identity,
		Version:               c.cfg.TLSVersion,
		SessionCache:          c.cfg.SessionCache,
		TicketStore:           c.cfg.TicketStore,
		DisableSessionTickets: c.cfg.DisableSessionTickets,
		AcceptEarlyData:       c.cfg.AcceptEarlyData,
		OfferEarlyData:        c.cfg.OfferEarlyData,
		Rand:                  c.cfg.Rand,
		Now:                   c.cfg.Now,
	}
}

// startClient sends the first flight.
func (c *Conn) startClient() error {
	c.engine = tlsmini.NewEngine(c.tlsConfig())
	c.dcid = make([]byte, cidLen)
	c.cfg.Rand.Read(c.dcid)
	c.initialClient, c.initialServer = initialSecrets(c.dcid)
	flight, err := c.engine.Start()
	if err != nil {
		return err
	}
	c.sendCryptoFlight(flight)
	return nil
}

// sendCryptoFlight maps TLS messages to CRYPTO frames in their spaces and
// transmits them.
func (c *Conn) sendCryptoFlight(msgs []tlsmini.Message) {
	perSpace := map[int][]*frame{}
	order := []int{}
	for _, m := range msgs {
		var space int
		switch m.Epoch {
		case tlsmini.EpochInitial:
			space = spcInitial
		case tlsmini.EpochHandshake:
			space = spcHandshake
		default:
			space = spcApp
		}
		c.encBuf = tlsmini.AppendMessage(c.encBuf[:0], m)
		enc := c.encBuf
		sp := c.spaces[space]
		// Chunk the crypto stream.
		const chunk = 1000
		for off := 0; off < len(enc); off += chunk {
			end := off + chunk
			if end > len(enc) {
				end = len(enc)
			}
			f := &frame{kind: frCrypto, offset: sp.cryptoOutOffset, data: append([]byte(nil), enc[off:end]...)}
			sp.cryptoOutOffset += uint64(end - off)
			if perSpace[space] == nil {
				order = append(order, space)
			}
			perSpace[space] = append(perSpace[space], f)
		}
	}
	for _, space := range order {
		c.sendInSpace(space, perSpace[space])
	}
}

// --- Packetization and transmission ---

// maxPlain is the plaintext budget per packet, leaving room for the
// header and AEAD tag.
const maxPlain = maxDatagram - 60 - tlsmini.AEADOverhead

// sendInSpace packs frames into packets in the given space and transmits
// them (coalescing into datagrams, padding Initial datagrams).
//
//simlint:hotpath
func (c *Conn) sendInSpace(space int, frames []*frame) {
	if c.closed && frames[0].kind != frConnClose {
		return
	}
	plans := c.sendPlans[:0]
	pf := c.planFrames[:0]
	cur := sendPlan{}
	for _, f := range frames {
		l := frameWireLen(f)
		if cur.plain > 0 && cur.plain+l > maxPlain {
			plans = append(plans, cur)
			cur = sendPlan{lo: len(pf), hi: len(pf)}
		}
		pf = append(pf, f)
		cur.hi = len(pf)
		cur.plain += l
	}
	if cur.plain > 0 || cur.hi > cur.lo {
		plans = append(plans, cur)
	}

	// Group plans into datagrams. The datagram buffer is leased from the
	// socket pool; sendDatagram transfers its ownership to the network.
	pool := c.sock.Pool()
	var dgram []byte
	hasInitial := false
	//simlint:allow hotalloc flush never escapes sendInSpace, so its captures stay on the stack (allocs guarded by TestPooledDatagramPathZeroAlloc)
	flush := func() {
		if len(dgram) == 0 {
			return
		}
		c.sendDatagram(dgram)
		dgram = nil
		hasInitial = false
	}
	for i, p := range plans {
		est := p.plain + 60 + tlsmini.AEADOverhead
		if len(dgram) > 0 && len(dgram)+est > maxDatagram {
			flush()
		}
		last := i == len(plans)-1
		pad := 0
		if (space == spcInitial || hasInitial) && last {
			// Datagrams carrying Initial packets are padded to 1200.
			pad = maxDatagram - len(dgram) - est
			if pad < 0 {
				pad = 0
			}
		}
		if dgram == nil {
			dgram = pool.Get(maxDatagram)
		}
		dgram = c.appendPacket(dgram, space, pf[p.lo:p.hi], pad)
		if space == spcInitial {
			hasInitial = true
		}
		if len(dgram) >= maxDatagram-80 {
			flush()
		}
	}
	flush()
	// A leased buffer that ended up empty (every packet dropped for lack
	// of keys) goes back to the pool.
	pool.Put(dgram)
	c.sendPlans = plans[:0]
	c.planFrames = pf[:0]
}

// sendPlan is one packet's frame range in the planFrames scratch plus
// its plaintext size.
type sendPlan struct{ lo, hi, plain int }

func countRetransmittable(frames []*frame) int {
	n := 0
	for _, f := range frames {
		if f.retransmittable() {
			n++
		}
	}
	return n
}

// appendPacket assigns a packet number, seals the frames, appends the
// finished packet to dst, and records it for loss recovery. pad adds
// that many PADDING bytes. When the space's keys are not yet available
// the packet is dropped and dst is returned unchanged (the packet
// number is still consumed, matching RFC-style monotonic numbering).
//
//simlint:hotpath
func (c *Conn) appendPacket(dst []byte, space int, frames []*frame, pad int) []byte {
	sp := c.spaces[space]
	pn := sp.nextPN
	sp.nextPN++

	if c.plainScratch == nil {
		c.plainScratch = c.sock.Pool().Get(maxDatagram)
	}
	plain := c.plainScratch[:0]
	ackEliciting := false
	for _, f := range frames {
		plain = appendFrame(plain, f)
		if f.ackEliciting() {
			ackEliciting = true
		}
	}
	if pad > 0 {
		// PADDING is neither ack-eliciting nor retransmittable, so it
		// can live in a reusable frame outside the frames slice.
		c.padFrame = frame{kind: frPadding, padLen: pad}
		plain = appendFrame(plain, &c.padFrame)
	}
	c.plainScratch = plain[:0] // keep (possibly grown) scratch for reuse

	var ptype packetType
	var secret []byte
	switch space {
	case spcInitial:
		ptype = ptInitial
		if c.isClient {
			secret = c.initialClient
		} else {
			secret = c.initialServer
		}
	case spcHandshake:
		ptype = ptHandshake
		secret = c.engine.TrafficSecret(tlsmini.EpochHandshake, c.isClient)
	default:
		if c.isClient && !c.hsComplete && c.engine.EarlyDataOffered() {
			ptype = ptZeroRTT
			secret = c.engine.TrafficSecret(tlsmini.EpochEarly, true)
		} else {
			ptype = ptOneRTT
			secret = c.engine.TrafficSecret(tlsmini.EpochApp, c.isClient)
		}
	}
	if secret == nil {
		// Keys not available (e.g. 0-RTT without early keys): drop.
		return dst
	}
	var token []byte
	if ptype == ptInitial && c.isClient {
		token = c.cfg.Token
	}
	sealedLen := len(plain) + tlsmini.AEADOverhead
	hdrStart := len(dst)
	dst = appendHeader(dst, ptype, c.version, c.dcid, c.scid, token, pn, sealedLen)
	// The AAD slice is taken before SealAppend extends dst; its contents
	// stay valid even if the append reallocates.
	dst = c.sealer.SealAppend(dst, secret, pn, plain, dst[hdrStart:])

	// Record retransmittable content.
	var keep []*frame
	if n := countRetransmittable(frames); n > 0 {
		keep = make([]*frame, 0, n)
		for _, f := range frames {
			if f.retransmittable() {
				keep = append(keep, f)
			}
		}
	}
	sp.sent[pn] = &sentPacket{frames: keep, timeSent: c.w.Now(), ackEliciting: ackEliciting}
	if ackEliciting {
		c.armPTO()
	}
	return dst
}

// sendDatagram transmits raw, honouring the server's anti-amplification
// limit before address validation.
func (c *Conn) sendDatagram(raw []byte) {
	if len(raw) == 0 {
		return
	}
	if !c.isClient && !c.validated {
		if c.sentBytes+len(raw) > 3*c.recvdBytes {
			c.ampQueue = append(c.ampQueue, raw)
			return
		}
	}
	c.sentBytes += len(raw)
	c.sock.Send(c.peer, raw)
}

func (c *Conn) flushAmpQueue() {
	for len(c.ampQueue) > 0 {
		raw := c.ampQueue[0]
		if !c.validated && c.sentBytes+len(raw) > 3*c.recvdBytes {
			return
		}
		c.ampQueue = c.ampQueue[1:]
		c.sentBytes += len(raw)
		c.sock.Send(c.peer, raw)
	}
}

// --- Receive path ---

func (c *Conn) handleDatagram(d netem.Datagram) {
	if c.closed {
		return
	}
	c.recvdBytes += len(d.Payload)
	b := d.Payload
	for len(b) > 0 && !c.closed {
		p, off, total, aad, err := parseHeader(b)
		if err != nil {
			return
		}
		if p.ptype == ptVersionNego {
			if c.isClient && !c.hsComplete {
				c.vnVersions = p.versions
				c.dialResult.Resolve(errVersionNegotiation)
			}
			return
		}
		if !c.processPacket(p, b[off:total], aad) && len(c.undecryptable) < 32 {
			// Buffered past the datagram's pooled lifetime: copy every
			// field that aliases the datagram buffer.
			c.undecryptable = append(c.undecryptable, storedPacket{
				p:      p.retained(),
				sealed: append([]byte(nil), b[off:total]...),
				aad:    append([]byte(nil), aad...),
			})
		}
		b = b[total:]
	}
	if !c.isClient && !c.validated {
		// More client bytes raise the amplification budget.
		c.flushAmpQueue()
	}
	c.flushAcks()
}

var errVersionNegotiation = errors.New("quic: version negotiation required")

// PTOTrace enables PTO diagnostics on stdout (debug aid).
var PTOTrace = false

// processPacket handles one packet. It reports false when the packet
// could not be decrypted because its keys are not yet available (the
// caller buffers such packets for retry).
func (c *Conn) processPacket(p packet, sealed, aad []byte) bool {
	space := spaceOf(p.ptype)
	var secret []byte
	switch p.ptype {
	case ptInitial:
		if c.isClient {
			secret = c.initialServer
		} else {
			secret = c.initialClient
		}
	case ptHandshake:
		secret = c.engine.TrafficSecret(tlsmini.EpochHandshake, !c.isClient)
	case ptZeroRTT:
		if c.isClient {
			return true // irrelevant
		}
		if !c.engine.EarlyDataAccepted() {
			// Before the ClientHello is processed we cannot know; buffer.
			return c.engine.NegotiatedVersion() != 0
		}
		secret = c.engine.TrafficSecret(tlsmini.EpochEarly, true)
	case ptOneRTT:
		secret = c.engine.TrafficSecret(tlsmini.EpochApp, !c.isClient)
	}
	if secret == nil {
		return false
	}
	plain, err := c.opener.Open(secret, p.pn, sealed, aad)
	if err != nil {
		return true // authentication failure: drop, do not buffer
	}
	frames, err := parseFrames(plain)
	if err != nil {
		return true
	}

	sp := c.spaces[space]
	sp.recvd[p.pn] = true
	if !sp.recvdAny || p.pn > sp.largest {
		sp.largest = p.pn
		sp.recvdAny = true
	}

	if c.isClient && p.ptype == ptInitial && len(p.scid) > 0 {
		// Adopt the server's connection ID.
		c.dcid = append([]byte(nil), p.scid...)
	}
	if !c.isClient && p.ptype == ptHandshake {
		// A decryptable Handshake packet validates the client address.
		c.validated = true
		c.flushAmpQueue()
	}

	ackEliciting := false
	for _, f := range frames {
		if f.ackEliciting() {
			ackEliciting = true
		}
		c.handleFrame(space, f)
		if c.closed {
			return true
		}
	}
	if ackEliciting {
		sp.ackQueued = true
	}
	c.retryUndecryptable()
	return true
}

// retryUndecryptable re-processes buffered packets now that the key
// schedule may have advanced.
func (c *Conn) retryUndecryptable() {
	if len(c.undecryptable) == 0 {
		return
	}
	pending := c.undecryptable
	c.undecryptable = nil
	for _, sp := range pending {
		if c.closed {
			return
		}
		if !c.processPacket(sp.p, sp.sealed, sp.aad) && len(c.undecryptable) < 32 {
			c.undecryptable = append(c.undecryptable, sp)
		}
	}
}

func (c *Conn) handleFrame(space int, f *frame) {
	switch f.kind {
	case frPadding, frPing:
	case frAck:
		c.processAck(space, f)
	case frCrypto:
		c.processCrypto(space, f)
	case frNewToken:
		if c.isClient {
			c.newToken = f.token
		}
	case frStreamBase:
		c.processStreamFrame(f)
	case frPathChallenge:
		// Echo the payload back to the (possibly just-rebound) peer
		// address; receiving the echo there validates the path.
		c.sendInSpace(spcApp, []*frame{{kind: frPathResponse, pathData: f.pathData}})
	case frPathResponse:
		if c.pathValidated != nil && f.pathData == c.pathChallenge {
			c.pathValidated.Resolve(true)
			c.pathValidated = nil
		}
	case frHandshakeDone:
		// Client may drop handshake keys; nothing further needed here.
	case frConnClose:
		c.teardown(fmt.Errorf("quic: closed by peer: code=%d %s", f.errorCode, f.reason))
	}
}

func (c *Conn) processAck(space int, f *frame) {
	sp := c.spaces[space]
	low := uint64(0)
	if f.firstRange < f.largestAcked {
		low = f.largestAcked - f.firstRange
	}
	for pn := low; pn <= f.largestAcked; pn++ {
		ent, ok := sp.sent[pn]
		if !ok {
			continue
		}
		if pn == f.largestAcked && ent.ackEliciting {
			sample := c.w.Now() - ent.timeSent
			if c.srtt == 0 {
				c.srtt = sample
			} else {
				c.srtt = (7*c.srtt + sample) / 8
			}
			pto := 2*c.srtt + 30*time.Millisecond
			if pto < minPTO {
				pto = minPTO
			}
			c.pto = pto
		}
		delete(sp.sent, pn)
	}
	c.ptoCount = 0
	c.armPTO()
}

func (c *Conn) processCrypto(space int, f *frame) {
	sp := c.spaces[space]
	// Reassemble the crypto stream in order.
	if f.offset > sp.cryptoInNext {
		sp.cryptoPending[f.offset] = f.data
		return
	}
	if f.offset+uint64(len(f.data)) <= sp.cryptoInNext {
		return // duplicate
	}
	skip := sp.cryptoInNext - f.offset
	sp.hsBuf = append(sp.hsBuf, f.data[skip:]...)
	sp.cryptoInNext = f.offset + uint64(len(f.data))
	for {
		d, ok := sp.cryptoPending[sp.cryptoInNext]
		if !ok {
			break
		}
		delete(sp.cryptoPending, sp.cryptoInNext)
		sp.cryptoInNext += uint64(len(d))
		sp.hsBuf = append(sp.hsBuf, d...)
	}
	c.drainHandshakeMessages(space)
}

func (c *Conn) drainHandshakeMessages(space int) {
	sp := c.spaces[space]
	for len(sp.hsBuf) > 0 {
		m, n, err := tlsmini.DecodeMessage(sp.hsBuf)
		if err != nil {
			return // wait for more bytes
		}
		sp.hsBuf = sp.hsBuf[n:]
		switch space {
		case spcInitial:
			m.Epoch = tlsmini.EpochInitial
		case spcHandshake:
			m.Epoch = tlsmini.EpochHandshake
		default:
			m.Epoch = tlsmini.EpochApp
		}
		wasComplete := c.engine.Complete()
		flight, err := c.engine.Handle(m)
		if err != nil {
			c.sendInSpace(space, []*frame{{kind: frConnClose, errorCode: 0x128, reason: err.Error()}})
			c.teardown(err)
			return
		}
		if len(flight) > 0 {
			c.sendCryptoFlight(flight)
		}
		if !wasComplete && c.engine.Complete() {
			c.onHandshakeComplete()
		}
	}
}

func (c *Conn) onHandshakeComplete() {
	c.hsComplete = true
	c.hsCompleteAt = c.w.Now()
	c.hsTx, c.hsRx = c.sock.TxBytes, c.sock.RxBytes
	if c.isClient {
		// Replay 0-RTT data as 1-RTT if the server rejected it.
		if c.engine.EarlyDataOffered() && !c.engine.EarlyDataAccepted() {
			for _, s := range c.earlyStreams {
				s.replayEarlyData()
			}
		}
		c.earlyStreams = nil
		c.dialResult.Resolve(nil)
		return
	}
	// Server: confirm the handshake and provision the client.
	frames := []*frame{{kind: frHandshakeDone}}
	if len(c.cfg.TokenKey) > 0 {
		frames = append(frames, &frame{kind: frNewToken, token: mintToken(c.cfg.TokenKey, c.peer.Addr())})
	}
	c.sendInSpace(spcApp, frames)
	c.dialResult.Resolve(nil)
}

func (c *Conn) processStreamFrame(f *frame) {
	s, ok := c.streams[f.streamID]
	if !ok {
		// Peer-initiated stream.
		s = newStream(c, f.streamID)
		c.streams[f.streamID] = s
		c.acceptQ.Push(s)
	}
	s.receive(f)
}

// flushAcks emits pending ACK frames, one packet per space.
func (c *Conn) flushAcks() {
	if c.closed {
		return
	}
	for i, sp := range c.spaces {
		if !sp.ackQueued || !sp.recvdAny {
			continue
		}
		sp.ackQueued = false
		// Contiguous range ending at the largest received.
		run := uint64(0)
		for sp.recvd[sp.largest-run-1] && sp.largest >= run+1 {
			run++
		}
		c.sendInSpace(i, []*frame{{kind: frAck, largestAcked: sp.largest, firstRange: run}})
	}
}

// --- Loss recovery ---

func (c *Conn) armPTO() {
	c.ptoTimer.Stop()
	c.ptoTimer = sim.Timer{}
	if c.closed {
		return
	}
	outstanding := false
	for _, sp := range c.spaces {
		for _, ent := range sp.sent {
			if ent.ackEliciting {
				outstanding = true
				break
			}
		}
	}
	// RFC 9002 anti-deadlock: until the handshake completes, keep the PTO
	// armed even with nothing in flight, so a client whose packets were
	// all acknowledged still probes an amplification-starved server.
	if !outstanding && c.hsComplete {
		return
	}
	c.ptoTimer = c.w.AfterFunc(c.pto, c.ptoFn)
}

func (c *Conn) onPTO() {
	if c.closed {
		return
	}
	if PTOTrace {
		fmt.Printf("PTO at %v client=%v count=%d pto=%v\n", c.w.Now(), c.isClient, c.ptoCount, c.pto)
	}
	ampBlocked := !c.isClient && !c.validated && len(c.ampQueue) > 0
	if ampBlocked {
		// An amplification-limited server is waiting for client bytes,
		// not experiencing loss; its PTO budget must not burn down. It
		// still gives up eventually (the client may be gone for good —
		// under burst loss, routinely), or the armed timer would keep
		// the simulation alive forever.
		c.ampPTOs++
		if c.ampPTOs > maxPTOs {
			c.teardown(errors.New("quic: amplification-blocked with silent peer, giving up"))
			return
		}
	} else {
		c.ptoCount++
	}
	if c.ptoCount > maxPTOs {
		c.teardown(errors.New("quic: too many PTOs, peer unreachable"))
		return
	}
	resent := false
	if !ampBlocked {
		resent = c.retransmitUnacked(spcInitial)
	}
	if !resent && !c.hsComplete && c.isClient {
		// Anti-deadlock probe: a padded Initial PING re-validates our
		// address and raises the server's amplification budget.
		c.sendInSpace(spcInitial, []*frame{{kind: frPing}})
	}
	c.pto *= 2
	if c.pto > maxPTO {
		c.pto = maxPTO
	}
	c.armPTO()
}

// retransmitUnacked re-sends every unacked retransmittable frame across
// all packet-number spaces, in deterministic packet-number order (map
// iteration order must not leak into the wire image). Shared by the PTO
// probe and by path migration, which treats everything in flight toward
// the retired path as lost (RFC 9000 §9.4) rather than waiting out a
// probe timeout.
func (c *Conn) retransmitUnacked(from int) bool {
	resent := false
	for i := from; i < len(c.spaces); i++ {
		sp := c.spaces[i]
		pns := slices.Sorted(maps.Keys(sp.sent))
		var resend []*frame
		for _, pn := range pns {
			ent := sp.sent[pn]
			delete(sp.sent, pn)
			if len(ent.frames) == 0 {
				continue
			}
			resend = append(resend, ent.frames...)
		}
		if len(resend) > 0 {
			c.sendInSpace(i, resend)
			resent = true
		}
	}
	return resent
}

// recvLoop drives a dialed connection from one socket; migration
// retires the socket (ending its loop) and starts a loop on the
// replacement. The datagram buffer is released once handleDatagram
// returns: anything the connection keeps from it (buffered
// undecryptable packets, adopted connection IDs) has been copied by
// then.
func (c *Conn) recvLoop(sock *netem.Socket) {
	for {
		d, ok := sock.Recv()
		if !ok {
			return
		}
		if d.Reject {
			// ICMP-style rejection from a middlebox: the peer is
			// actively unreachable on this path, so fail now rather
			// than burning the PTO budget.
			c.teardown(errors.New("quic: connection refused"))
			return
		}
		c.handleDatagram(d)
		sock.Pool().Put(d.Payload)
		if c.closed {
			return
		}
	}
}

// Migrate moves the client end of the connection onto a fresh socket —
// what a real client does when its access network changes underneath
// it (RFC 9000 §9). It probes the new path with PATH_CHALLENGE and
// blocks until the server's PATH_RESPONSE validates it. The session
// survives: no new handshake, no lost streams — in-flight data is
// recovered onto the new path by normal loss recovery. This is the
// structural advantage E26 measures DoQ/DoH3 against the TCP
// transports, which must reconnect from scratch.
func (c *Conn) Migrate() error {
	if !c.isClient || c.host == nil {
		return errors.New("quic: only dialed client connections migrate")
	}
	if c.closed {
		return errors.New("quic: connection closed")
	}
	if !c.hsComplete {
		return errors.New("quic: cannot migrate during handshake")
	}
	old := c.sock
	sock := c.host.Dial(netem.ProtoUDP, udpOverhead)
	c.prevTx += old.TxBytes
	c.prevRx += old.RxBytes
	c.sock = sock
	c.w.Go(func() { c.recvLoop(sock) })
	// Closing the retired socket ends its recv loop; anything still in
	// flight toward it is recovered by PTO onto the new path.
	old.Close()

	f := &frame{kind: frPathChallenge}
	c.cfg.Rand.Read(f.pathData[:])
	c.pathChallenge = f.pathData
	validated := sim.NewFuture[bool](c.w, "quic-path-validate")
	c.pathValidated = validated
	// Anything in flight toward the retired socket — and any response
	// headed back to it — is gone with the old path. Recover the
	// application space onto the new path now instead of stalling
	// queries behind a probe timeout (RFC 9000 §9.4 lets a sender treat
	// those as lost). Handshake spaces stay put: a long-header packet
	// from the unknown address would look like a fresh connection
	// attempt to the server, not a rebind.
	c.retransmitUnacked(spcApp)
	// Probe until the path validates (RFC 9000 §8.2.4). The loss
	// recovery machinery is not enough here: PATH_RESPONSE is never
	// retransmitted (§13.3), so once the challenge itself is ACKed a
	// lost response would strand the wait forever. Re-probe on a
	// PTO-backoff schedule and abandon the path like any other
	// unreachable peer.
	c.sendInSpace(spcApp, []*frame{f})
	probe := c.pto
	for attempt := 0; ; attempt++ {
		if v, ok := validated.WaitTimeout(probe); ok {
			if !v {
				return errors.New("quic: path validation failed")
			}
			return nil
		}
		if c.closed {
			return errors.New("quic: connection closed")
		}
		if attempt >= maxPTOs {
			c.pathValidated = nil
			return errors.New("quic: path validation failed")
		}
		c.sendInSpace(spcApp, []*frame{{kind: frPathChallenge, pathData: f.pathData}})
		probe *= 2
		if probe > maxPTO {
			probe = maxPTO
		}
	}
}

// --- Address validation tokens ---

// mintToken binds a token to the client address with the server key.
func mintToken(key []byte, addr netip.Addr) []byte {
	mac := hmacSHA256(key, addr.AsSlice())
	return mac[:16]
}

func validToken(key, token []byte, addr netip.Addr) bool {
	if len(token) != 16 {
		return false
	}
	want := mintToken(key, addr)
	same := true
	for i := range want {
		if token[i] != want[i] {
			same = false
		}
	}
	return same
}
