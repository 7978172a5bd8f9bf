// Package measure implements the paper's measurement methodology — the
// primary contribution being reproduced.
//
// Single query (§2, §3.1): every measurement is preceded by an identical
// cache-warming query, which (a) puts the record in the resolver's cache
// so the measured resolve time is not polluted by recursion, and (b)
// provisions the TLS session ticket, the QUIC address-validation token
// and the negotiated QUIC version. The measured connection is then a
// fresh session that uses Session Resumption (and, per RFC 9250, the
// token together with it), so the QUIC handshake is not inflated by
// Version Negotiation, Address Validation, or the amplification limit.
// The same warming discipline applies to DoH3 (E13–E15), whose sessions
// resume through identical QUIC machinery under the "h3" ALPN.
//
// Campaigns run every client on the vantage's netapi/simnet backend
// (resolver.Vantage.Backend), the deterministic side of the DESIGN.md
// §10 seam; the identical client code serves live measurements through
// cmd/dnsperf.
//
// Web (§2, §3.2): per [vantage : resolver : protocol] combination a local
// DNS proxy forwards Chromium's queries upstream; a cache-warming
// navigation precedes the measured loads; proxy sessions are reset in
// between so the measured navigation establishes new (resumed) sessions.
//
// # Execution model
//
// Both campaigns run as sharded parallel campaigns on the
// internal/campaign engine. The campaign is partitioned by vantage and
// by fixed-size resolver blocks into shards; each shard instantiates its
// partition of the resolver.Blueprint inside a private sim.World whose
// seed derives from (campaign seed, shard index), executes its slice of
// the measurement matrix serially on virtual time, and returns its
// samples. Shards run on a worker pool of OS threads sized by
// GOMAXPROCS (see the Parallelism knobs) and results merge in shard
// order, so the sample stream is byte-identical at any parallelism
// level: the shard plan and every shard seed are functions of the
// configuration only, never of the worker count. The resolver block of
// each campaign is a package constant, so the shard plan is fixed by
// the blueprint alone.
package measure

import (
	"time"

	"repro/internal/browser"
	"repro/internal/campaign"
	"repro/internal/dnsmsg"
	"repro/internal/dnsproxy"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/pages"
	"repro/internal/resolver"
	"repro/internal/sim"
	"repro/internal/tlsmini"
)

// SingleQuerySample is one single-query measurement.
type SingleQuerySample struct {
	Vantage           string
	VantageContinent  geo.Continent
	ResolverIdx       int
	ResolverContinent geo.Continent
	Protocol          dox.Protocol
	Round             int

	Handshake time.Duration
	Resolve   time.Duration
	// Total is the time from starting the connection to receiving the
	// answer. With 0-RTT the handshake and the query overlap, so Total
	// < Handshake+Resolve.
	Total time.Duration
	// At is the (shard-local) virtual time the measured exchange began;
	// experiments running under a time-varying path schedule (E20) use
	// it to attribute the sample to a schedule phase.
	At time.Duration
	M  dox.Metrics
	OK bool
}

// SingleQueryConfig parameterizes a single-query campaign.
type SingleQueryConfig struct {
	// Blueprint is the resolver population: the campaign is partitioned
	// by vantage and resolver block, and every shard instantiates its
	// partition of the blueprint in a private World.
	Blueprint *resolver.Blueprint
	// Parallelism caps the worker pool (0 = GOMAXPROCS). It affects wall
	// time only, never results.
	Parallelism int

	Protocols []dox.Protocol // default: all five
	// Rounds repeats the campaign (the paper measures every 2 hours for
	// a week: 84 rounds).
	Rounds int
	// RoundInterval spaces rounds in virtual time (default 2h).
	RoundInterval time.Duration
	// DisableResumption is the E10 ablation: the measured connection
	// starts from a cold session (no ticket, no token) and is therefore
	// exposed to the amplification limit.
	DisableResumption bool
	// Use0RTT is the E11 ablation: offer 0-RTT on resumed QUIC sessions
	// (DoQ, and DoH3 when it is in the protocol set).
	Use0RTT bool
	// FlushResolverCache is the E17 uncached baseline: the resolver's
	// answer cache is flushed between the warming and the measured
	// query, so the measured resolve pays full upstream recursion while
	// the session-level warming (ticket, token, version) still holds.
	FlushResolverCache bool
	// QuerySpacing paces the combinations of one shard apart in virtual
	// time (default 0: back to back). Campaigns under a time-varying
	// path schedule use it to spread measurements across the schedule's
	// phases.
	QuerySpacing time.Duration
}

const (
	// queryDomain is the queried name (paper: an A record for google.com).
	queryDomain = "google.com"
	// queryTimeout bounds one single-query or cache-stream query.
	queryTimeout = 15 * time.Second
	// loadTimeout bounds one page load.
	loadTimeout = 60 * time.Second

	// singleQueryResolverBlock and webResolverBlock are the shard
	// granularities in resolvers (web combinations are far more
	// expensive than single queries). Part of the shard plan: changing
	// one changes shard seeds and thus the exact sample stream.
	singleQueryResolverBlock = 32
	webResolverBlock         = 4
)

func (c *SingleQueryConfig) defaults() {
	if len(c.Protocols) == 0 {
		c.Protocols = dox.Protocols
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.RoundInterval == 0 {
		c.RoundInterval = 2 * time.Hour
	}
}

// runSharded scatters a campaign over (vantage x resolver block) shards
// and gathers the per-shard samples in shard order. Each shard
// instantiates its blueprint partition in a private World seeded from
// (blueprint seed, shard index) and runs body as that World's initial
// task. The first shard instantiation error aborts the campaign.
func runSharded[T any](bp *resolver.Blueprint, parallelism, resolverBlock int, body func(u *resolver.Universe, vp *resolver.Vantage) []T) ([]T, error) {
	blocks := campaign.Blocks(len(bp.Profiles), resolverBlock)
	type shardPlan struct {
		vantage int
		span    campaign.Span
	}
	var plan []shardPlan
	for v := range bp.Vantages {
		for _, blk := range blocks {
			plan = append(plan, shardPlan{vantage: v, span: blk})
		}
	}
	parts, err := campaign.RunErr(bp.Seed, len(plan), parallelism, func(s campaign.Shard) ([]T, error) {
		p := plan[s.Index]
		u, err := bp.Instantiate(s.Seed, resolver.Scope{
			Vantages:   []int{p.vantage},
			ResolverLo: p.span.Lo,
			ResolverHi: p.span.Hi,
		})
		if err != nil {
			return nil, err
		}
		var out []T
		u.W.Go(func() { out = body(u, u.Vantages[0]) })
		u.W.Run()
		// The shard's World is dropped here; reap its parked goroutines
		// (resolver/server tasks blocked forever) so long campaigns don't
		// accumulate dead stacks for the GC to scan.
		u.W.Shutdown()
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return campaign.Concat(parts), nil
}

// RunSingleQuery executes the campaign and returns all samples, ordered
// by (vantage, resolver block, round, resolver, protocol). It must be
// called from the host side (it drives each World's Run itself).
func RunSingleQuery(cfg SingleQueryConfig) ([]SingleQuerySample, error) {
	cfg.defaults()
	return runSharded(cfg.Blueprint, cfg.Parallelism, singleQueryResolverBlock,
		func(u *resolver.Universe, vp *resolver.Vantage) []SingleQuerySample {
			return singleQueryShardBody(u, vp, cfg)
		})
}

// singleQueryShardBody is the serial measurement loop of one shard: all
// rounds over the universe's resolver partition from one vantage. It
// runs as a task inside u's World.
func singleQueryShardBody(u *resolver.Universe, vp *resolver.Vantage, cfg SingleQueryConfig) []SingleQuerySample {
	runner := newVantageRunner(u, vp, cfg)
	var out []SingleQuerySample
	for round := 0; round < cfg.Rounds; round++ {
		for idx, res := range u.Resolvers {
			for _, proto := range cfg.Protocols {
				s := runner.measureOne(u.GlobalResolverIdx(idx), res, proto)
				s.Round = round
				out = append(out, s)
				if cfg.QuerySpacing > 0 {
					u.W.Sleep(cfg.QuerySpacing)
				}
			}
		}
		if round < cfg.Rounds-1 {
			u.W.Sleep(cfg.RoundInterval)
		}
	}
	return out
}

// vantageRunner holds the per-vantage client state (session caches carry
// across rounds, as a long-running measurement host's would). The two
// QUIC transports keep separate session stores because the stored state
// includes the negotiated ALPN.
type vantageRunner struct {
	u        *resolver.Universe
	vp       *resolver.Vantage
	cfg      SingleQueryConfig
	sessions *tlsmini.SessionCache
	quicSess *dox.QUICSessionStore
	h3Sess   *dox.QUICSessionStore
	qid      uint16
}

func newVantageRunner(u *resolver.Universe, vp *resolver.Vantage, cfg SingleQueryConfig) *vantageRunner {
	return &vantageRunner{
		u:        u,
		vp:       vp,
		cfg:      cfg,
		sessions: tlsmini.NewSessionCache(),
		quicSess: dox.NewQUICSessionStore(),
		h3Sess:   dox.NewQUICSessionStore(),
	}
}

func (r *vantageRunner) options(res *resolver.Resolver, proto dox.Protocol, warming bool) dox.Options {
	o := dox.Options{
		Backend:    r.vp.Backend,
		Resolver:   res.Addr,
		ServerName: res.Name,
		DoQPort:    res.DoQPort,
	}
	if r.cfg.DisableResumption && !warming {
		// Cold session: fresh cache, no token, no cached version. The
		// client still has to discover the version via VN if needed.
		o.SessionCache = tlsmini.NewSessionCache()
		return o
	}
	o.SessionCache = r.sessions
	if st := r.sessionStore(proto); st != nil {
		st.Apply(res.Addr, &o)
		if !warming && r.cfg.Use0RTT {
			o.OfferEarlyData = true
		}
	}
	return o
}

// sessionStore returns the QUIC session store for proto, or nil for the
// non-QUIC transports.
func (r *vantageRunner) sessionStore(proto dox.Protocol) *dox.QUICSessionStore {
	switch proto {
	case dox.DoQ:
		return r.quicSess
	case dox.DoH3:
		return r.h3Sess
	}
	return nil
}

// measureOne performs warming + measured query for one combination.
// globalIdx is the resolver's blueprint-global index, recorded in the
// sample so partitioned and whole-universe runs report identically.
func (r *vantageRunner) measureOne(globalIdx int, res *resolver.Resolver, proto dox.Protocol) SingleQuerySample {
	s := SingleQuerySample{
		Vantage:           r.vp.Name,
		VantageContinent:  r.vp.Continent,
		ResolverIdx:       globalIdx,
		ResolverContinent: res.Place.Continent,
		Protocol:          proto,
	}
	// Cache warming (also provisions ticket + token + version).
	if !r.exchange(res, proto, true, &SingleQuerySample{}) {
		return s
	}
	if r.cfg.FlushResolverCache {
		// E17 uncached baseline: keep the session warming, drop the
		// answer cache, so the measured query is a clean cold miss.
		res.FlushCache()
	}
	// Actual measurement on a fresh connection.
	s.At = r.u.W.Now()
	s.OK = r.exchange(res, proto, false, &s)
	return s
}

// exchange runs one connect+query, bounded by the query timeout. It
// reports success and fills the sample's timing fields.
func (r *vantageRunner) exchange(res *resolver.Resolver, proto dox.Protocol, warming bool, s *SingleQuerySample) bool {
	w := r.u.W
	ok, alive := boundedTask(w, "measure-exchange", queryTimeout, func(done *sim.Future[bool]) {
		connStart := w.Now()
		o := r.options(res, proto, warming)
		c, err := dox.Connect(proto, o)
		if err != nil {
			done.Resolve(false)
			return
		}
		defer c.Close()
		r.qid++
		q := dnsmsg.NewQuery(r.qid, queryDomain, dnsmsg.TypeA)
		start := w.Now()
		_, err = c.Query(&q)
		if err != nil {
			done.Resolve(false)
			return
		}
		s.Resolve = w.Now() - start
		s.Total = w.Now() - connStart
		s.Handshake = c.Metrics().HandshakeTime
		s.M = *c.Metrics()
		if st := r.sessionStore(proto); st != nil {
			st.Remember(res.Addr, c)
		}
		done.Resolve(true)
	})
	return alive && ok
}

// boundedTask runs body as a new task of w and waits up to timeout for
// the value body resolves done with; ok is false on timeout. body
// resolves done itself, so what it defers (closing a client) runs after
// the waiter has been woken.
func boundedTask[T any](w *sim.World, label string, timeout time.Duration, body func(done *sim.Future[T])) (v T, ok bool) {
	done := sim.NewFuture[T](w, label)
	w.Go(func() { body(done) })
	return done.WaitTimeout(timeout)
}

// --- Web performance campaign ---

// WebSample is one page-load measurement (the median of the per-combo
// loads is what Fig. 3 and Fig. 4 aggregate).
type WebSample struct {
	Vantage          string
	VantageContinent geo.Continent
	ResolverIdx      int
	Protocol         dox.Protocol
	Page             string
	Load             int

	FCP        time.Duration
	PLT        time.Duration
	DNSQueries int
	OK         bool
}

// WebConfig parameterizes the web campaign.
type WebConfig struct {
	// Blueprint is the resolver population (see SingleQueryConfig).
	Blueprint *resolver.Blueprint
	// Parallelism caps the worker pool (0 = GOMAXPROCS); results do not
	// depend on it.
	Parallelism int

	Protocols []dox.Protocol
	Pages     []*pages.Page
	// Loads is the number of measured cold-start loads per combination
	// (paper: four).
	Loads int
	// FixDoTReuse applies the DoT connection-reuse fix (E12); default
	// false reproduces the paper.
	FixDoTReuse bool
	// StubCache gives each combination's DNS proxy a client-side
	// answer cache that survives session resets: the warming navigation
	// fills it, so the measured loads resolve repeated names locally
	// (experiment E18's warm shared cache). The cache is unbounded.
	StubCache bool
}

func (c *WebConfig) defaults() {
	if len(c.Protocols) == 0 {
		c.Protocols = dox.Protocols
	}
	if len(c.Pages) == 0 {
		c.Pages = pages.Top10()
	}
	if c.Loads == 0 {
		c.Loads = 4
	}
}

// RunWeb executes the web campaign and returns all samples, ordered by
// (vantage, resolver block, resolver, protocol, page, load).
func RunWeb(cfg WebConfig) ([]WebSample, error) {
	cfg.defaults()
	return runSharded(cfg.Blueprint, cfg.Parallelism, webResolverBlock,
		func(u *resolver.Universe, vp *resolver.Vantage) []WebSample {
			return webShardBody(u, vp, cfg)
		})
}

// webShardBody measures every [resolver:protocol] combination of the
// universe's partition from one vantage. It runs as a task in u's World.
func webShardBody(u *resolver.Universe, vp *resolver.Vantage, cfg WebConfig) []WebSample {
	var out []WebSample
	for idx, res := range u.Resolvers {
		for _, proto := range cfg.Protocols {
			out = append(out, runWebCombo(u, vp, u.GlobalResolverIdx(idx), res, proto, cfg)...)
		}
	}
	return out
}

// runWebCombo measures all pages for one [vantage:resolver:protocol].
func runWebCombo(u *resolver.Universe, vp *resolver.Vantage, globalIdx int, res *resolver.Resolver, proto dox.Protocol, cfg WebConfig) []WebSample {
	// A fresh proxy per combination, as the paper sets DNS Proxy up anew.
	listenPort := uint16(10000 + vp.Index)
	proxy, err := dnsproxy.New(vp.Backend, dnsproxy.Config{
		Upstream: proto,
		Options: dox.Options{
			Resolver:   res.Addr,
			ServerName: res.Name,
			DoQPort:    res.DoQPort,
		},
		ListenPort:  listenPort,
		FixDoTReuse: cfg.FixDoTReuse,
		StubCache:   cfg.StubCache,
	})
	if err != nil {
		return nil
	}
	defer proxy.Close()
	eng := &browser.Engine{Backend: vp.Backend, Proxy: proxy.Addr()}

	var out []WebSample
	for _, page := range cfg.Pages {
		// Cache-warming navigation.
		loadWithTimeout(u, eng, page)
		for load := 0; load < cfg.Loads; load++ {
			proxy.ResetSessions()
			r, ok := loadWithTimeout(u, eng, page)
			s := WebSample{
				Vantage:          vp.Name,
				VantageContinent: vp.Continent,
				ResolverIdx:      globalIdx,
				Protocol:         proto,
				Page:             page.Name,
				Load:             load,
				OK:               ok && r.Err == nil,
			}
			if s.OK {
				s.FCP, s.PLT, s.DNSQueries = r.FCP, r.PLT, r.DNSQueries
			}
			out = append(out, s)
		}
	}
	return out
}

func loadWithTimeout(u *resolver.Universe, eng *browser.Engine, page *pages.Page) (browser.Result, bool) {
	return boundedTask(u.W, "web-load", loadTimeout, func(done *sim.Future[browser.Result]) {
		done.Resolve(eng.Load(page))
	})
}
