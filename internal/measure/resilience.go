// Hostile-network campaigns (DESIGN.md §11, experiments E25–E27): the
// racing fallback stub measured across middlebox policies, page loads
// with a mid-load access-network flip (QUIC connection migration vs TCP
// reconnect), and a steady query stream through a scheduled resolver
// outage with and without multi-upstream failover.
//
// All three run as sharded campaigns on the same engine as the paper
// campaigns: shard plans and seeds derive from the configuration only,
// so reports are byte-identical at any parallelism.
package measure

import (
	"time"

	"repro/internal/browser"
	"repro/internal/dnsmsg"
	"repro/internal/dnsproxy"
	"repro/internal/dox"
	"repro/internal/dox/racing"
	"repro/internal/netem"
	"repro/internal/pages"
	"repro/internal/resolver"
	"repro/internal/sim"
)

// --- E25: racing fallback under middlebox policies ---

// MiddleboxPolicy is one named fault-injection cell of the E25 grid.
type MiddleboxPolicy struct {
	Name   string
	Policy netem.Policy
}

// MiddleboxPolicies returns the canonical E25 policy grid: an open
// path, the paper's §6 concern of port-853 interference (silently and
// with active rejection), a full UDP blackhole (the middlebox posture
// that motivates happy eyeballs in the first place), and an RST
// injector on the TCP side.
func MiddleboxPolicies() []MiddleboxPolicy {
	return []MiddleboxPolicy{
		{Name: "open", Policy: netem.Policy{}},
		{Name: "drop-udp-853", Policy: netem.Policy{BlockUDPPorts: []uint16{853}}},
		{Name: "reject-udp-853", Policy: netem.Policy{BlockUDPPorts: []uint16{853}, Reject: true}},
		{Name: "blackhole-udp", Policy: netem.Policy{BlockAllUDP: true}},
		{Name: "rst-tcp-853", Policy: netem.Policy{BlockTCPPorts: []uint16{853}, RSTInject: true}},
	}
}

// RacingSample is one racing-stub resolve under a middlebox policy.
type RacingSample struct {
	Vantage     string
	ResolverIdx int
	Policy      string
	Round       int

	Winner  dox.Protocol
	Resolve time.Duration
	// RaceTime is the stub's fallback penalty: how long the winning
	// race ran, zero for sticky resolves.
	RaceTime time.Duration
	Sticky   bool
	OK       bool
}

// RacingConfig parameterizes the E25 campaign.
type RacingConfig struct {
	Blueprint   *resolver.Blueprint
	Parallelism int

	// Queries per [vantage:resolver:policy] cell (default 4): the first
	// runs the race, the rest measure the sticky steady state.
	Queries int
}

// racingResolverBlock is the E25 shard granularity in resolvers.
const racingResolverBlock = 4

func (c *RacingConfig) defaults() {
	if c.Queries == 0 {
		c.Queries = 4
	}
}

// RunRacing executes the racing-fallback campaign over the
// MiddleboxPolicies grid and returns samples ordered by (vantage,
// resolver block, resolver, policy, round).
func RunRacing(cfg RacingConfig) ([]RacingSample, error) {
	cfg.defaults()
	policies := MiddleboxPolicies()
	return runSharded(cfg.Blueprint, cfg.Parallelism, racingResolverBlock,
		func(u *resolver.Universe, vp *resolver.Vantage) []RacingSample {
			return racingShardBody(u, vp, cfg, policies)
		})
}

func racingShardBody(u *resolver.Universe, vp *resolver.Vantage, cfg RacingConfig, policies []MiddleboxPolicy) []RacingSample {
	var out []RacingSample
	var qid uint16
	for idx, res := range u.Resolvers {
		for _, pol := range policies {
			// The middlebox sits on the vantage's outbound path; replies
			// flow freely (blocking the forward direction is enough to
			// kill the exchange, as real port-blocking middleboxes do).
			u.Net.SetPolicy(vp.Host.Addr(), res.Addr, pol.Policy)
			stub := racing.New(racing.Config{
				Options: dox.Options{
					Backend:    vp.Backend,
					Resolver:   res.Addr,
					ServerName: res.Name,
					DoQPort:    res.DoQPort,
					// Bounded Do53 retransmits (satellite of this PR): a
					// blackholed rung gives up inside its race budget
					// instead of camping on the classic flat 5s.
					UDPTimeout: 500 * time.Millisecond,
					UDPBackoff: 2,
				},
				// No re-probing mid-cell: the policy never lifts, so a
				// re-race would only repeat the measured penalty.
				ReprobeInterval: -1,
			})
			for round := 0; round < cfg.Queries; round++ {
				qid++
				q := dnsmsg.NewQuery(qid, queryDomain, dnsmsg.TypeA)
				before := stub.Metrics().Races
				start := u.W.Now()
				_, winner, err := stub.Resolve(&q)
				m := stub.Metrics()
				out = append(out, RacingSample{
					Vantage:     vp.Name,
					ResolverIdx: u.GlobalResolverIdx(idx),
					Policy:      pol.Name,
					Round:       round,
					Winner:      winner,
					Resolve:     u.W.Now() - start,
					RaceTime:    m.LastRaceTime,
					Sticky:      m.Races == before,
					OK:          err == nil,
				})
			}
			stub.Close()
			u.Net.SetPolicy(vp.Host.Addr(), res.Addr, netem.Policy{})
		}
	}
	return out
}

// --- E26: page load with a mid-load access-network flip ---

// MigrationWebSample is one page load during which the vantage's access
// link flips (wifi to cellular) and the DNS proxy's upstream session
// either migrates (QUIC) or reconnects (TCP).
type MigrationWebSample struct {
	Vantage     string
	ResolverIdx int
	Protocol    dox.Protocol
	Page        string

	PLT        time.Duration
	DNSQueries int
	// Migrated reports whether the upstream session survived the flip
	// via QUIC connection migration.
	Migrated bool
	OK       bool
}

// MigrationWebConfig parameterizes the E26 campaign. The blueprint
// should place vantages behind the wifi access profile; the link flips
// to migrationFlipTo mid-load.
type MigrationWebConfig struct {
	Blueprint   *resolver.Blueprint
	Parallelism int
}

const (
	// migrationResolverBlock is the E26 shard granularity in resolvers.
	migrationResolverBlock = 2
	// migrationFlipTo is the access profile after the flip.
	migrationFlipTo = "4g"
	// migrationPages is how many of the Top10 pages each cell loads.
	migrationPages = 3
)

// migrationProtocols are the transports under comparison: the two
// migrating QUIC transports vs the two reconnecting TCP ones.
var migrationProtocols = []dox.Protocol{dox.DoQ, dox.DoH3, dox.DoT, dox.DoH}

// RunMigrationWeb executes the mid-load migration campaign, ordered by
// (vantage, resolver block, resolver, protocol, page).
func RunMigrationWeb(cfg MigrationWebConfig) ([]MigrationWebSample, error) {
	flip, err := netem.ProfileByName(migrationFlipTo)
	if err != nil {
		return nil, err
	}
	pgs := pages.Top10()[:migrationPages]
	return runSharded(cfg.Blueprint, cfg.Parallelism, migrationResolverBlock,
		func(u *resolver.Universe, vp *resolver.Vantage) []MigrationWebSample {
			var out []MigrationWebSample
			for idx, res := range u.Resolvers {
				out = append(out, runMigrationCell(u, vp, u.GlobalResolverIdx(idx), res, flip, pgs)...)
			}
			return out
		})
}

// migrationArm is one protocol's proxy+engine pair within a cell. All
// arms of a cell share the same flip time, so the protocols are
// compared under an identical fault and only their recovery differs.
type migrationArm struct {
	proto dox.Protocol
	proxy *dnsproxy.Proxy
	eng   *browser.Engine
}

func runMigrationCell(u *resolver.Universe, vp *resolver.Vantage, globalIdx int, res *resolver.Resolver, flip netem.AccessProfile, pgs []*pages.Page) []MigrationWebSample {
	var arms []migrationArm
	for i, proto := range migrationProtocols {
		proxy, err := dnsproxy.New(vp.Backend, dnsproxy.Config{
			Upstream: proto,
			Options: dox.Options{
				Resolver:   res.Addr,
				ServerName: res.Name,
				DoQPort:    res.DoQPort,
			},
			ListenPort: uint16(10000 + 8*vp.Index + i),
			// A query the flip kills mid-flight is retried over a fresh
			// session, as production forwarders do — the TCP arms pay
			// that reconnect, the QUIC arms migrate instead.
			RetryUpstream: true,
		})
		if err != nil {
			continue
		}
		arms = append(arms, migrationArm{proto: proto, proxy: proxy,
			eng: &browser.Engine{Backend: vp.Backend, Proxy: proxy.Addr()}})
	}
	defer func() {
		for _, a := range arms {
			a.proxy.Close()
		}
	}()
	base, _ := u.Net.AccessLink(vp.Host.Addr())

	var out []MigrationWebSample
	for _, page := range pgs {
		// Warming navigation on the base link per arm (fills each
		// proxy's cache, provisions tickets/tokens), then a second
		// warm-cache navigation that calibrates where "mid load" falls.
		// Calibrate on elapsed virtual time, not on PLT: PLT pads
		// render and onLoad delays that no fetch sleeps through, and a
		// flip scheduled by PLT would fire after the last byte arrived.
		// The flip offset is the smallest calibrated half-load across
		// arms — one shared fault instant that lands inside every
		// arm's network window, so a protocol whose slower DNS
		// stretches its own calibration load cannot buy itself a later,
		// milder flip.
		flipAt := time.Duration(-1)
		for _, a := range arms {
			loadWithTimeout(u, a.eng, page)
			calStart := u.W.Now()
			_, ok := loadWithTimeout(u, a.eng, page)
			el := u.W.Now() - calStart
			if ok && el > 0 && (flipAt < 0 || el/2 < flipAt) {
				flipAt = el / 2
			}
		}
		if flipAt <= 0 {
			flipAt = loadTimeout / 4
		}

		for _, a := range arms {
			a := a
			a.proxy.ResetSessions()
			// A long-lived stub proxy keeps a live upstream session
			// from prior traffic; re-establish one (resumed handshake)
			// so the flip has a session to move, not a cold slate.
			_ = a.proxy.Prime()

			// Measured navigation: at the shared mid-load instant the
			// access link flips and the proxy moves its upstream
			// session to the new network. Timer callbacks run as
			// tasks, so blocking on path validation there is fine.
			migrated := false
			timer := vp.Backend.AfterFunc(flipAt, func() {
				u.Net.SetAccessLink(vp.Host.Addr(), flip)
				migrated, _ = a.proxy.MigrateUpstream()
			})
			r, ok := loadWithTimeout(u, a.eng, page)
			// A load that ended before the flip keeps its timer from
			// firing into the next measurement.
			timer.Stop()
			u.Net.SetAccessLink(vp.Host.Addr(), base)

			s := MigrationWebSample{
				Vantage:     vp.Name,
				ResolverIdx: globalIdx,
				Protocol:    a.proto,
				Page:        page.Name,
				Migrated:    migrated,
				OK:          ok && r.Err == nil,
			}
			if s.OK {
				s.PLT, s.DNSQueries = r.PLT, r.DNSQueries
			}
			out = append(out, s)
		}
	}
	return out
}

// --- E27: resolver failover through a scheduled outage ---

// FailoverSample is one query of the steady stream driven through a
// primary-resolver outage.
type FailoverSample struct {
	Vantage string
	// Set is the global index of the upstream set's primary resolver.
	Set int
	// Arm is "pinned" or "failover".
	Arm   string
	Round int
	// At is the query's start time relative to the arm's stream start;
	// the outage window is expressed on the same clock.
	At       time.Duration
	Upstream int // index into the upstream set actually queried
	Resolve  time.Duration
	OK       bool
}

// FailoverCampaignConfig parameterizes the E27 campaign. Each shard's
// resolver block forms one upstream set: the first resolver is the
// primary, which suffers a total outage for [FailoverOutageStart,
// FailoverOutageEnd) on the arm-relative clock.
type FailoverCampaignConfig struct {
	Blueprint   *resolver.Blueprint
	Parallelism int

	// Queries is the stream length per arm (default 40).
	Queries int
}

// FailoverOutageStart and FailoverOutageEnd bound the primary's outage
// on the arm-relative clock.
const (
	FailoverOutageStart = 10 * time.Second
	FailoverOutageEnd   = 25 * time.Second
)

const (
	// failoverUpstreams is the resolvers per set — and the shard
	// granularity.
	failoverUpstreams = 3
	// failoverInterval spaces an arm's queries apart.
	failoverInterval = time.Second
	// failoverQueryTimeout bounds one query; a timeout is the failure
	// the health tracker counts.
	failoverQueryTimeout = time.Second
)

func (c *FailoverCampaignConfig) defaults() {
	if c.Queries == 0 {
		c.Queries = 40
	}
}

// RunFailoverCampaign executes the outage campaign: per upstream set, a
// pinned arm (every query to the primary) and a failover arm (upstream
// picked by the health tracker) run back to back through identical
// arm-relative outage schedules. Samples are ordered by (vantage,
// set, arm, round).
func RunFailoverCampaign(cfg FailoverCampaignConfig) ([]FailoverSample, error) {
	cfg.defaults()
	return runSharded(cfg.Blueprint, cfg.Parallelism, failoverUpstreams,
		func(u *resolver.Universe, vp *resolver.Vantage) []FailoverSample {
			return failoverShardBody(u, vp, cfg)
		})
}

func failoverShardBody(u *resolver.Universe, vp *resolver.Vantage, cfg FailoverCampaignConfig) []FailoverSample {
	if len(u.Resolvers) < 2 {
		// A set needs somewhere to fail over to; the population floor
		// can leave a short tail block. Skip it.
		return nil
	}
	var out []FailoverSample
	out = append(out, runFailoverArm(u, vp, cfg, false)...)
	out = append(out, runFailoverArm(u, vp, cfg, true)...)
	return out
}

// runFailoverArm drives one arm's query stream. The primary's outage is
// scheduled relative to the arm's start, so both arms see the identical
// failure pattern on their own clocks.
func runFailoverArm(u *resolver.Universe, vp *resolver.Vantage, cfg FailoverCampaignConfig, failover bool) []FailoverSample {
	primary := u.Resolvers[0]
	armStart := u.W.Now()
	base := u.Net.Path(vp.Host.Addr(), primary.Addr)
	down := base
	down.Loss = 1
	u.Net.SetSymmetricPathSchedule(vp.Host.Addr(), primary.Addr, []netem.PathStep{
		{At: armStart, Params: base},
		{At: armStart + FailoverOutageStart, Params: down},
		{At: armStart + FailoverOutageEnd, Params: base},
	})
	defer u.Net.SetSymmetricPathSchedule(vp.Host.Addr(), primary.Addr, nil)

	arm := "pinned"
	if failover {
		arm = "failover"
	}
	tracker := racing.NewFailover(vp.Backend, len(u.Resolvers))
	var qid uint16
	var out []FailoverSample
	for round := 0; round < cfg.Queries; round++ {
		pick := 0
		if failover {
			pick = tracker.Pick()
		}
		res := u.Resolvers[pick]
		qid++
		start := u.W.Now()
		ok := failoverQuery(u, vp, res, qid)
		tracker.Report(pick, ok)
		out = append(out, FailoverSample{
			Vantage:  vp.Name,
			Set:      u.GlobalResolverIdx(0),
			Arm:      arm,
			Round:    round,
			At:       start - armStart,
			Upstream: pick,
			Resolve:  u.W.Now() - start,
			OK:       ok,
		})
		u.W.Sleep(failoverInterval)
	}
	return out
}

// failoverQuery runs one bounded Do53 exchange — the transport a
// forwarder's health checks ride on. The bounded-retransmit knobs keep
// a dead upstream's cost inside the query timeout.
func failoverQuery(u *resolver.Universe, vp *resolver.Vantage, res *resolver.Resolver, qid uint16) bool {
	ok, alive := boundedTask(u.W, "failover-query", failoverQueryTimeout, func(done *sim.Future[bool]) {
		c, err := dox.Connect(dox.DoUDP, dox.Options{
			Backend:    vp.Backend,
			Resolver:   res.Addr,
			ServerName: res.Name,
			UDPTimeout: failoverQueryTimeout / 3,
			UDPRetries: 1,
		})
		if err != nil {
			done.Resolve(false)
			return
		}
		defer c.Close()
		q := dnsmsg.NewQuery(qid, queryDomain, dnsmsg.TypeA)
		_, err = c.Query(&q)
		done.Resolve(err == nil)
	})
	return alive && ok
}
