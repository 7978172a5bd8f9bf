// Package dnsproxy reimplements the local stub proxy of the paper's web
// performance methodology: Chromium is pointed at a local DNS proxy that
// forwards every query over a configured upstream DoX transport.
//
// Two behaviours of the original tool (AdGuard dnsproxy as used by the
// paper) are modeled explicitly:
//
//   - Session carry-over: TLS session tickets, QUIC address-validation
//     tokens and the negotiated QUIC version (for the QUIC transports,
//     DoQ and DoH3) survive ResetSessions, so the measured navigation
//     resumes sessions exactly as the paper's patched proxy does.
//   - The DoT in-flight bug (paper §3.2): when a query arrives while
//     another DoT query is still in flight, the proxy opens a new
//     connection — repeating the full transport+TLS handshake — instead
//     of reusing the existing one. The paper found this affected almost
//     60% of DoT page loads and disregarded DoT in its web analysis; the
//     fix (contributed upstream by the authors) is the FixDoTReuse
//     toggle, ablated in experiment E12.
//
// Beyond the paper's tool, the proxy implements the serving semantics a
// production resolver frontend needs (DESIGN.md §8, experiments
// E22–E24):
//
//   - In-flight coalescing: identical concurrent (name, type) queries
//     share one upstream exchange; the fan-out answers waiters in their
//     virtual-time arrival order, so coalescing is deterministic.
//   - RFC 8767 serve-stale: when the upstream is unreachable, answers
//     past their TTL are served from the stub cache up to a bounded
//     stale ceiling, and a background revalidation task refreshes the
//     entry once the upstream recovers.
//   - TTL-expiry prefetch: names a deterministic fixed-memory hotness
//     tracker marks as hot are refreshed shortly before their TTL
//     lapses, so the Zipf head never goes cold.
//   - Per-client token-bucket rate limiting with REFUSED responses.
package dnsproxy

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/netapi"
	"repro/internal/stats"
	"repro/internal/tlsmini"
)

// prefetchIdle bounds how long a prefetch refresh chain outlives client
// demand: once no client query for the name has arrived within this
// window, the next scheduled refresh lapses instead of firing. Without
// the horizon a once-hot name would be refreshed forever.
const prefetchIdle = 30 * time.Second

// Config parameterizes a proxy instance.
type Config struct {
	// Upstream transport and resolver.
	Upstream dox.Protocol
	Options  dox.Options // Backend is the vantage backend; Resolver the upstream

	// ListenPort is the local UDP port (default 5353).
	ListenPort uint16

	// FixDoTReuse applies the authors' upstream fix for the in-flight
	// connection bug. Default false: reproduce the paper's behaviour.
	FixDoTReuse bool

	// StubCache enables a client-side TTL-aware answer cache: queries
	// for names the proxy has seen (within TTL) are answered locally
	// without touching the upstream transport, modelling a caching stub
	// in front of a shared resolver (experiment E18). Unlike upstream
	// sessions the stub cache deliberately survives ResetSessions — it
	// is the "warm shared cache" under measurement.
	StubCache bool
	// StubCacheCapacity bounds the stub cache (LRU); 0 = unbounded.
	StubCacheCapacity int

	// Coalesce shares one upstream exchange among identical concurrent
	// (name, type) queries. Waiters are answered in virtual-time arrival
	// order (E22).
	Coalesce bool

	// ServeStale answers from expired stub-cache entries while the
	// upstream is unreachable, per RFC 8767 (E23). Requires StubCache.
	ServeStale bool
	// StaleTTL bounds how far past expiry an entry may still be served
	// (default 1h; RFC 8767 suggests 1-3 days, scaled down to campaign
	// timescales).
	StaleTTL time.Duration
	// RevalidateInterval is the cadence of background revalidation
	// attempts for stale-served names (default 2s).
	RevalidateInterval time.Duration

	// Prefetch refreshes hot names shortly before their TTL lapses so
	// the Zipf head stays warm (E24). Requires StubCache.
	Prefetch bool
	// PrefetchMinHits is the hotness threshold (default 3 accesses).
	PrefetchMinHits int
	// PrefetchLead is how long before expiry the refresh fires (default
	// 1s, clamped below the answer TTL).
	PrefetchLead time.Duration

	// RateLimitQPS enables per-client token-bucket rate limiting:
	// clients exceeding this sustained rate get REFUSED responses.
	// 0 disables limiting.
	RateLimitQPS float64
	// RateLimitBurst is the bucket depth (default 4).
	RateLimitBurst int

	// RetryUpstream retries a failed upstream exchange once over a
	// fresh session, as production forwarders do when a reused
	// connection dies under a query (an access-network flip being the
	// canonical cause, E26). Default false: the paper-reproduction
	// experiments surface transport errors as-is.
	RetryUpstream bool
}

// waiter is one stub endpoint awaiting a coalesced exchange: where to
// send the answer and which query ID to stamp on it.
type waiter struct {
	src netip.AddrPort
	id  uint16
}

// flight is one in-progress upstream exchange and its waiter list, in
// arrival order. Flights are pooled: the waiters slice keeps its
// capacity across reuse, so steady-state coalescing does not allocate.
type flight struct {
	waiters []waiter
}

// tokenBucket is one client's rate-limit state on virtual time.
type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// Proxy is a running DNS forwarder.
type Proxy struct {
	cfg  Config
	be   netapi.Backend
	sock netapi.PacketConn

	sessions *tlsmini.SessionCache
	quicSess *dox.QUICSessionStore
	stub     *cache.Cache

	primary   dox.Client
	ephemeral []dox.Client

	// fwdFn is the per-query task body, bound once; dgFree recycles the
	// packet boxes it is handed, so spawning a forward task allocates
	// neither a closure nor a carrier (GoCall + free list).
	fwdFn  func(any)
	dgFree []*netapi.Packet

	// inflight maps a query key to its coalesced flight. The map is
	// only ever indexed, never iterated, so it leaks no ordering.
	inflight   map[cache.Key]*flight
	flightFree []*flight

	hot          *cache.Hotness
	prefetchOn   map[cache.Key]bool          // armed prefetch timers
	lastSeen     map[cache.Key]time.Duration // last client demand per armed chain
	revalidating map[cache.Key]bool          // armed revalidation retries
	buckets      map[netip.AddrPort]*tokenBucket
	qid          uint16 // internal IDs for prefetch/revalidation queries

	// Counters for the evaluation.
	Queries          int
	ExtraConnections int // DoT-bug connections that repeated the handshake
	Failures         int
	StubHits         int // queries answered from the stub cache
	UpstreamQueries  int // exchanges actually sent upstream
	Coalesced        int // queries that joined an in-flight exchange
	StaleServed      int // answers served past expiry (RFC 8767)
	Revalidations    int // stale entries refreshed after upstream recovery
	Prefetches       int // hot-name refreshes issued before expiry
	Refused          int // queries rejected by the rate limiter
	UpstreamRetries  int // exchanges retried over a fresh session
	Migrations       int // upstream connections that survived a link flip

	// StaleAge sketches the staleness (age past expiry) of every
	// stale-served answer, for the E23 staleness CDF. Nil unless
	// ServeStale is on.
	StaleAge *stats.Sketch

	closed bool
}

// New starts a proxy on the vantage backend. Upstream connections are
// established lazily on the first query, as the real tool does.
func New(be netapi.Backend, cfg Config) (*Proxy, error) {
	if cfg.ListenPort == 0 {
		cfg.ListenPort = 5353
	}
	if cfg.StaleTTL == 0 {
		cfg.StaleTTL = time.Hour
	}
	if cfg.RevalidateInterval == 0 {
		cfg.RevalidateInterval = 2 * time.Second
	}
	if cfg.PrefetchMinHits == 0 {
		cfg.PrefetchMinHits = 3
	}
	if cfg.PrefetchLead == 0 {
		cfg.PrefetchLead = time.Second
	}
	if cfg.RateLimitBurst == 0 {
		cfg.RateLimitBurst = 4
	}
	if cfg.ServeStale || cfg.Prefetch {
		// Both features live on the stub cache; enabling them implies it.
		cfg.StubCache = true
	}
	sock, err := be.ListenUDP(cfg.ListenPort, 8)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:      cfg,
		be:       be,
		sock:     sock,
		sessions: tlsmini.NewSessionCache(),
		quicSess: dox.NewQUICSessionStore(),
	}
	if cfg.StubCache {
		p.stub = cache.New(be.Now, cfg.StubCacheCapacity)
	}
	if cfg.ServeStale {
		p.stub.SetStaleCeiling(cfg.StaleTTL)
		p.revalidating = make(map[cache.Key]bool)
		p.StaleAge = stats.NewSketch()
	}
	if cfg.Coalesce {
		p.inflight = make(map[cache.Key]*flight)
	}
	if cfg.Prefetch {
		p.hot = cache.NewHotness(cache.DefaultHotnessCapacity)
		p.prefetchOn = make(map[cache.Key]bool)
		p.lastSeen = make(map[cache.Key]time.Duration)
	}
	if cfg.RateLimitQPS > 0 {
		p.buckets = make(map[netip.AddrPort]*tokenBucket)
	}
	p.fwdFn = func(a any) {
		dg := a.(*netapi.Packet)
		d := *dg
		*dg = netapi.Packet{}
		p.dgFree = append(p.dgFree, dg)
		p.forward(d)
	}
	p.be.Go(p.serve)
	return p, nil
}

// Addr returns the local address Chromium's stub should query.
func (p *Proxy) Addr() netip.AddrPort { return p.sock.LocalAddr() }

func (p *Proxy) serve() {
	for {
		d, ok := p.sock.Recv()
		if !ok {
			return
		}
		var dg *netapi.Packet
		if n := len(p.dgFree); n > 0 {
			dg = p.dgFree[n-1]
			p.dgFree[n-1] = nil
			p.dgFree = p.dgFree[:n-1]
		} else {
			dg = new(netapi.Packet)
		}
		*dg = d
		p.be.GoCall(p.fwdFn, dg)
	}
}

// queryKey extracts the coalescing/cache key of a query's first
// question. ok is false for questionless messages.
func queryKey(q *dnsmsg.Message) (cache.Key, bool) {
	if len(q.Questions) == 0 {
		return cache.Key{}, false
	}
	qu := q.Questions[0]
	return cache.Key{Name: qu.Name, Type: qu.Type}, true
}

// send encodes resp into a pooled buffer and sends it to dst (the
// network assumes ownership of the buffer).
func (p *Proxy) send(dst netip.AddrPort, resp *dnsmsg.Message) {
	p.sock.Send(dst, resp.AppendEncode(p.sock.Pool().Get(512)))
}

func (p *Proxy) forward(d netapi.Packet) {
	q, err := dnsmsg.Decode(d.Payload)
	p.sock.Pool().Put(d.Payload) // Decode copies everything it keeps
	if err != nil {
		return
	}
	p.Queries++
	if !p.allow(d.Src) {
		p.Refused++
		resp := dnsmsg.Reply(*q)
		resp.RCode = dnsmsg.RCodeRefused
		p.send(d.Src, &resp)
		return
	}
	key, hasKey := queryKey(q)
	if hasKey && p.hot != nil {
		// Popularity reflects demand, so every query counts — including
		// the ones the stub cache absorbs.
		p.hot.Touch(key)
		if p.prefetchOn[key] {
			// Live demand extends the armed refresh chain's idle horizon.
			p.lastSeen[key] = p.be.Now()
		}
	}
	if p.stub != nil {
		// Encode the cache's reply straight into a pooled buffer: a hit
		// builds no reply message.
		if addr, ttl, ok := p.stub.AnswerFor(q); ok {
			p.StubHits++
			p.sock.Send(d.Src, q.AppendReplyA(p.sock.Pool().Get(512), addr, ttl))
			return
		}
	}
	if p.cfg.Coalesce && hasKey {
		if f, ok := p.inflight[key]; ok {
			// Join the in-flight exchange. Arrival order is virtual-time
			// order (the kernel runs one task at a time), so the waiter
			// list — and with it the fan-out below — is deterministic.
			p.Coalesced++
			f.waiters = append(f.waiters, waiter{src: d.Src, id: q.ID})
			return
		}
		f := p.newFlight()
		f.waiters = append(f.waiters, waiter{src: d.Src, id: q.ID})
		p.inflight[key] = f
		resp := p.exchange(q, false)
		// Unregister before fanning out: replies may yield, and a new
		// identical query must start a fresh exchange, not join a
		// completed one.
		delete(p.inflight, key)
		if resp != nil {
			for _, wt := range f.waiters {
				resp.ID = wt.id
				p.send(wt.src, resp)
			}
		} else {
			for _, wt := range f.waiters {
				p.answerStale(key, wt.src, wt.id)
			}
		}
		p.freeFlight(f)
		return
	}
	resp := p.exchange(q, false)
	if resp == nil {
		if hasKey {
			// RFC 8767: prefer a stale answer over no answer. Without
			// serve-stale the query is dropped: the stub retransmits at
			// its own cadence, exactly the asymmetry the paper observed
			// between DoUDP and the others.
			p.answerStale(key, d.Src, q.ID)
		}
		return
	}
	p.send(d.Src, resp)
}

// exchange performs one upstream query, storing any answer in the stub
// cache and arming prefetch for hot names. internal marks proxy-initiated
// queries (revalidation, prefetch), which must not count as client demand
// — otherwise the refresh chain would feed its own idle horizon and never
// die. Returns nil on failure.
func (p *Proxy) exchange(q *dnsmsg.Message, internal bool) *dnsmsg.Message {
	client, transient, err := p.client()
	if err != nil {
		p.Failures++
		return nil
	}
	p.UpstreamQueries++
	// Rewrite the transaction ID for the upstream leg, as real proxies
	// do: two stubs may pick the same ID for concurrent queries, and the
	// upstream transports match responses by ID.
	orig := q.ID
	p.qid++
	q.ID = p.qid
	resp, err := client.Query(q)
	if err != nil && p.cfg.RetryUpstream && !transient && !p.closed {
		// The session died under the query (the access network flipped,
		// the peer reset): retry once over a fresh session. Only the
		// first failing exchange resets the shared primary — a
		// concurrent flight that failed with it finds the replacement
		// already in place and must not tear it down again.
		if p.primary == client {
			p.ResetSessions()
		}
		if rc, _, rerr := p.client(); rerr == nil {
			p.UpstreamRetries++
			resp, err = rc.Query(q)
		}
	}
	q.ID = orig
	if transient {
		client.Close()
	}
	if err != nil {
		p.Failures++
		return nil
	}
	resp.ID = orig
	if p.stub != nil {
		p.stub.StoreResponse(resp)
		p.armPrefetch(resp, internal)
	}
	return resp
}

// allow charges src's token bucket for one query. Buckets refill at
// RateLimitQPS on virtual time up to RateLimitBurst; the map is only
// indexed by source, never iterated, so limiting stays deterministic.
func (p *Proxy) allow(src netip.AddrPort) bool {
	if p.buckets == nil {
		return true
	}
	now := p.be.Now()
	b, ok := p.buckets[src]
	if !ok {
		b = &tokenBucket{tokens: float64(p.cfg.RateLimitBurst), last: now}
		p.buckets[src] = b
	}
	b.tokens += p.cfg.RateLimitQPS * (now - b.last).Seconds()
	if max := float64(p.cfg.RateLimitBurst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// answerStale serves src from a fresh-or-stale stub entry after a failed
// upstream exchange, arming background revalidation when the answer was
// genuinely stale. Reports whether an answer was sent.
func (p *Proxy) answerStale(key cache.Key, src netip.AddrPort, id uint16) bool {
	if !p.cfg.ServeStale || p.closed {
		return false
	}
	ent, ok := p.stub.LookupStale(key)
	if !ok {
		return false
	}
	ttl := cache.StaleAdvertTTL
	if rem := ent.Remaining(p.be.Now()); rem > 0 {
		// A concurrent exchange refreshed the entry while ours failed:
		// this is a plain hit, not a stale serve.
		ttl = rem
	} else {
		p.StaleServed++
		p.StaleAge.AddDuration(-rem)
		p.scheduleRevalidate(key)
	}
	resp := dnsmsg.Message{
		ID:                 id,
		Response:           true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		Questions:          []dnsmsg.Question{{Name: key.Name, Type: key.Type, Class: dnsmsg.ClassIN}},
	}
	resp.AnswerA(ent.Addr, cache.TTLSeconds(ttl))
	p.send(src, &resp)
	return true
}

// scheduleRevalidate arms (at most one per key) a background refresh of
// a stale-served entry: retried every RevalidateInterval until the
// upstream recovers or the entry ages past the stale ceiling.
func (p *Proxy) scheduleRevalidate(key cache.Key) {
	if p.revalidating[key] {
		return
	}
	p.revalidating[key] = true
	p.be.AfterFunc(p.cfg.RevalidateInterval, func() { p.revalidate(key) })
}

// revalidate runs one background refresh attempt for key. Timer
// callbacks run as kernel tasks, so blocking on the upstream exchange
// here is safe.
func (p *Proxy) revalidate(key cache.Key) {
	if p.closed {
		delete(p.revalidating, key)
		return
	}
	if _, stillHeld := p.stub.LookupStale(key); !stillHeld {
		// Aged past the ceiling (or flushed): nothing left to refresh.
		delete(p.revalidating, key)
		return
	}
	p.qid++
	q := dnsmsg.NewQuery(p.qid, key.Name, key.Type)
	if resp := p.exchange(&q, true); resp != nil {
		p.Revalidations++
		delete(p.revalidating, key)
		return
	}
	// Still unreachable: keep the marker and retry.
	p.be.AfterFunc(p.cfg.RevalidateInterval, func() { p.revalidate(key) })
}

// armPrefetch schedules a TTL-expiry refresh for the first A answer of
// resp when the hotness tracker marks its name hot. At most one timer
// per key is armed; a successful refresh re-arms through this same path.
// A client-triggered arm records demand (seeding the idle horizon); an
// internal re-arm does not.
func (p *Proxy) armPrefetch(resp *dnsmsg.Message, internal bool) {
	if p.hot == nil || resp.RCode != dnsmsg.RCodeSuccess {
		return
	}
	for _, a := range resp.Answers {
		if a.Type != dnsmsg.TypeA || !a.Addr.IsValid() {
			continue
		}
		key := cache.Key{Name: a.Name, Type: a.Type}
		ttl := time.Duration(a.TTL) * time.Second
		if ttl <= 0 || p.prefetchOn[key] || !p.hot.Hot(key, p.cfg.PrefetchMinHits) {
			return
		}
		lead := p.cfg.PrefetchLead
		if ttl <= lead {
			// The upstream handed down the tail of its own cache entry
			// (shorter than the lead). Refreshing early would inherit an
			// even shorter remainder and starve the chain; refresh at
			// expiry instead, when the upstream re-recurses too (TTLs
			// round up, so our expiry lands just past the upstream's).
			lead = 0
		}
		p.prefetchOn[key] = true
		if !internal {
			p.lastSeen[key] = p.be.Now()
		}
		p.be.AfterFunc(ttl-lead, func() { p.prefetch(key) })
		return
	}
}

// prefetch refreshes key just before its TTL lapses, provided the name
// is still hot and clients have asked for it within the idle horizon.
// The refreshed answer re-arms the next prefetch, so a name under live
// demand never goes cold — while a chain the clients abandoned lapses
// at its next scheduled refresh.
func (p *Proxy) prefetch(key cache.Key) {
	delete(p.prefetchOn, key)
	if p.closed {
		return
	}
	if !p.hot.Hot(key, p.cfg.PrefetchMinHits) || p.be.Now()-p.lastSeen[key] > prefetchIdle {
		delete(p.lastSeen, key)
		return
	}
	if p.cfg.Coalesce {
		if _, busy := p.inflight[key]; busy {
			// A client exchange is already refreshing this name.
			return
		}
	}
	p.Prefetches++
	p.qid++
	q := dnsmsg.NewQuery(p.qid, key.Name, key.Type)
	p.exchange(&q, true)
}

// newFlight leases a flight with an empty (capacity-retaining) waiter
// list.
func (p *Proxy) newFlight() *flight {
	if n := len(p.flightFree); n > 0 {
		f := p.flightFree[n-1]
		p.flightFree[n-1] = nil
		p.flightFree = p.flightFree[:n-1]
		return f
	}
	return &flight{}
}

// freeFlight recycles a completed flight.
func (p *Proxy) freeFlight(f *flight) {
	f.waiters = f.waiters[:0]
	p.flightFree = append(p.flightFree, f)
}

// client returns the upstream session to use for the next query,
// reproducing the DoT in-flight bug unless FixDoTReuse is set. transient
// connections are closed after one exchange.
func (p *Proxy) client() (c dox.Client, transient bool, err error) {
	if p.primary != nil {
		if p.cfg.Upstream == dox.DoT && !p.cfg.FixDoTReuse && p.primary.InFlight() > 0 {
			// Bug: open a brand new connection (full TCP+TLS handshake)
			// because one query is already in flight.
			p.ExtraConnections++
			nc, err := p.connect()
			if err != nil {
				return nil, false, err
			}
			p.ephemeral = append(p.ephemeral, nc)
			return nc, false, nil
		}
		return p.primary, false, nil
	}
	p.primary, err = p.connect()
	if err != nil {
		p.primary = nil
	}
	return p.primary, false, err
}

// quicUpstream reports whether the upstream rides QUIC (and therefore
// carries token/version/ALPN state across ResetSessions).
func (p *Proxy) quicUpstream() bool {
	return p.cfg.Upstream == dox.DoQ || p.cfg.Upstream == dox.DoH3
}

func (p *Proxy) connect() (dox.Client, error) {
	o := p.cfg.Options
	o.Backend = p.be
	o.SessionCache = p.sessions
	if p.quicUpstream() {
		p.quicSess.Apply(o.Resolver, &o)
	}
	c, err := dox.Connect(p.cfg.Upstream, o)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ResetSessions closes all upstream connections while keeping resumption
// state (tickets, tokens, negotiated versions), as the paper does between
// the cache-warming navigation and the measurement navigation. The stub
// cache — including its stale inventory, hotness table and armed
// prefetches — survives: it is the warm shared cache under measurement.
func (p *Proxy) ResetSessions() {
	if p.primary != nil {
		if p.quicUpstream() {
			p.quicSess.Remember(p.cfg.Options.Resolver, p.primary)
		}
		p.primary.Close()
		p.primary = nil
	}
	for _, c := range p.ephemeral {
		c.Close()
	}
	p.ephemeral = nil
}

// Prime establishes the primary upstream session without sending a
// query, as a long-lived stub proxy would have from prior traffic.
// With resumption state remembered, this is a resumed handshake.
func (p *Proxy) Prime() error {
	_, _, err := p.client()
	return err
}

// MigrateUpstream moves the upstream session to a new access network
// (the vantage's link flipped, e.g. wifi to cellular). QUIC upstreams
// (DoQ, DoH3) migrate the live connection — one PATH_CHALLENGE round
// trip, no re-handshake; TCP-based upstreams are bound to the dead
// 4-tuple, so their sessions are torn down and the next query pays a
// fresh (resumed) handshake. Reports whether the connection survived.
func (p *Proxy) MigrateUpstream() (migrated bool, err error) {
	if p.primary == nil {
		return false, nil
	}
	if m, ok := p.primary.(dox.Migrator); ok {
		if err := m.Migrate(); err != nil {
			// Path validation failed: fall back to reconnecting.
			p.ResetSessions()
			return false, err
		}
		p.Migrations++
		return true, nil
	}
	// TCP-based sessions are bound to the dead 4-tuple. Abort them:
	// the peer's in-flight bytes can never reach the old address, so a
	// graceful close (which would let them drain) mismodels the flip.
	if a, ok := p.primary.(dox.Aborter); ok {
		a.Abort()
	}
	for _, c := range p.ephemeral {
		if a, ok := c.(dox.Aborter); ok {
			a.Abort()
		}
	}
	p.ResetSessions()
	return false, nil
}

// Close stops the proxy.
func (p *Proxy) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.ResetSessions()
	p.sock.Close()
}

// String describes the proxy configuration.
func (p *Proxy) String() string {
	return fmt.Sprintf("dnsproxy(%v -> %v)", p.cfg.Upstream, p.cfg.Options.Resolver)
}
