package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/dox"
	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/pages"
	"repro/internal/resolver"
	"repro/internal/stats"
)

// sizes holds every knob that scales a workload. The population shapes
// (continent mix, vantage list, protocol list, page corpus, policy grid,
// experiment registry) are never scaled; only how many times each cell
// is measured.
type sizes struct {
	sqResolvers                    int
	webResolvers                   int
	proxyResolvers, proxyQueries   int
	hostileResolvers               int
	racingQueries, failoverQueries int
	suiteResolvers, suiteWebPages  int
	suiteScanScale                 int
}

// benchSizes is the committed size: one pass of each workload takes
// 1-3 s serially on the reference machine (see README), so a run fits
// several passes and reports their median.
var benchSizes = sizes{
	sqResolvers:    128,
	webResolvers:   8,
	proxyResolvers: 12, proxyQueries: 100,
	hostileResolvers: 64, racingQueries: 4, failoverQueries: 40,
	suiteResolvers: 16, suiteWebPages: 2, suiteScanScale: 32,
}

// smokeSizes runs every code path once in well under a second per
// workload; the tests use it.
var smokeSizes = sizes{
	sqResolvers:    12,
	webResolvers:   6,
	proxyResolvers: 6, proxyQueries: 20,
	hostileResolvers: 12, racingQueries: 2, failoverQueries: 30,
	suiteResolvers: 12, suiteWebPages: 1, suiteScanScale: 64,
}

// pass is the outcome of one execution of a workload at a fixed size.
type pass struct {
	Ops, Failed int
	Digest      string
	// Wall, Mallocs and Bytes cover only the calls into the system, not
	// digesting.
	Wall           time.Duration
	Mallocs, Bytes uint64
	Shards         int
	// CacheHits and CacheLookups merge the cache counters of the
	// summaries that carry them (zero elsewhere).
	CacheHits, CacheLookups int
}

// call times one call into the system under test and, when tracing,
// records it as a child span of the pass.
func (p *pass) call(tr *tracer, parent int, name string, fn func() error) error {
	var err error
	wall, mallocs, bytes := tr.metered(parent, name, func() { err = fn() })
	p.Wall += wall
	p.Mallocs += mallocs
	p.Bytes += bytes
	return err
}

// sample counts one simulated operation and folds its result into the
// pass digest.
func (p *pass) sample(d digester, ok bool, v any) {
	p.Ops++
	if !ok {
		p.Failed++
	}
	d.add(v)
}

// passFunc executes one pass at the given parallelism.
type passFunc func(parallelism int, tr *tracer, parent int) (pass, error)

// workload is one set of seeded inputs. setup builds the generated
// configs (the only thing the system under test receives) and returns
// the function that runs one pass over them.
type workload struct {
	name  string
	why   string
	setup func(seed int64, sz sizes) (passFunc, error)
}

var workloads = []workload{
	{
		name:  "single_query",
		why:   "128-resolver paper mix x 6 vantages x 6 transports, one warmed single query on a new connection: handshake-bound (tlsmini, crypto, quic/tcpsim set-up, dox cold paths); caches and bulk transfer idle",
		setup: setupSingleQuery,
	},
	{
		name:  "web_load",
		why:   "10 resolvers x 6 vantages x 6 transports x Top10 pages on a cable link, cold-start loads via dnsproxy+browser: long-lived sessions, tcpsim/h2 bulk transfer, netem bottleneck queue; handshakes amortise",
		setup: setupWebLoad,
	},
	{
		name:  "proxy_cache",
		why:   "12 resolvers x 6 vantages x 6 transports, 4 stub clients x 100 queries on a caching proxy (coalesce, stale, prefetch, 128-entry LRU): cache, dnsmsg, dnsproxy, warm dox, sim switches; few handshakes",
		setup: setupProxyCache,
	},
	{
		name:  "hostile_net",
		why:   "racing stub under 5 middlebox policies plus failover through an outage, 64 resolvers in 234 shards of 3-4: netem policies, firing timers, loser cancellation, per-shard instantiate and shutdown",
		setup: setupHostileNet,
	},
	{
		name:  "suite",
		why:   "all 27 registered experiments on one shared Runner: the only path through scan, the access and burst-loss grids, campaign sharing and report rendering; its digest covers every report byte",
		setup: setupSuite,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const populationSeed = 2022

// digester hashes results in campaign order.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) add(v any)   { fmt.Fprintf(d.h, "%+v\n", v) }
func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
func (d digester) sketch(s *stats.Sketch) {
	fmt.Fprintf(d.h, "n=%d sum=%v min=%v p50=%v p95=%v max=%v\n",
		s.N(), s.Sum(), s.Min(), s.Quantile(0.5), s.Quantile(0.95), s.Max())
}

func blueprint(seed int64, resolvers int, access string) (*resolver.Blueprint, error) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           populationSeed,
		ResolverCounts: resolver.ScaledCounts(resolvers),
		Loss:           0.003,
		Access:         access,
	})
	if err != nil {
		return nil, err
	}
	bp.Seed = seed
	return bp, nil
}

// vantageShards is the shard count of a campaign partitioned by vantage
// and by resolver blocks of the given size.
func vantageShards(bp *resolver.Blueprint, block int) int {
	return len(bp.Vantages) * len(campaign.Blocks(len(bp.Profiles), block))
}

func setupSingleQuery(seed int64, sz sizes) (passFunc, error) {
	bp, err := blueprint(seed, sz.sqResolvers, "fiber")
	if err != nil {
		return nil, err
	}
	cfg := measure.SingleQueryConfig{
		Blueprint: bp,
		Protocols: dox.AllProtocols,
		Rounds:    1,
	}
	return func(par int, tr *tracer, parent int) (pass, error) {
		p := pass{Shards: vantageShards(bp, 32)}
		cfg := cfg
		cfg.Parallelism = par
		var samples []measure.SingleQuerySample
		err := p.call(tr, parent, "measure.RunSingleQuery", func() (err error) {
			samples, err = measure.RunSingleQuery(cfg)
			return err
		})
		d := newDigester()
		for _, s := range samples {
			p.sample(d, s.OK, s)
		}
		p.Digest = d.sum()
		return p, err
	}, nil
}

func setupWebLoad(seed int64, sz sizes) (passFunc, error) {
	bp, err := blueprint(seed, sz.webResolvers, "cable")
	if err != nil {
		return nil, err
	}
	cfg := measure.WebConfig{
		Blueprint: bp,
		Protocols: dox.AllProtocols,
		Pages:     pages.Top10(),
		Loads:     1,
	}
	return func(par int, tr *tracer, parent int) (pass, error) {
		p := pass{Shards: vantageShards(bp, 4)}
		cfg := cfg
		cfg.Parallelism = par
		var samples []measure.WebSample
		err := p.call(tr, parent, "measure.RunWeb", func() (err error) {
			samples, err = measure.RunWeb(cfg)
			return err
		})
		d := newDigester()
		for _, s := range samples {
			p.sample(d, s.OK, s)
		}
		p.Digest = d.sum()
		return p, err
	}, nil
}

func setupProxyCache(seed int64, sz sizes) (passFunc, error) {
	bp, err := blueprint(seed, sz.proxyResolvers, "fiber")
	if err != nil {
		return nil, err
	}
	cfg := measure.ProxyServeConfig{
		Blueprint:         bp,
		Clients:           4,
		Queries:           sz.proxyQueries,
		Names:             300,
		Coalesce:          true,
		ServeStale:        true,
		Prefetch:          true,
		StubCacheCapacity: 128,
	}
	return func(par int, tr *tracer, parent int) (pass, error) {
		p := pass{}
		d := newDigester()
		for _, proto := range dox.AllProtocols {
			cfg := cfg
			cfg.Parallelism = par
			cfg.Protocol = proto
			var sums []measure.ProxyServeSummary
			err := p.call(tr, parent, "measure.RunProxyServe/"+proto.String(), func() (err error) {
				sums, err = measure.RunProxyServe(cfg)
				return err
			})
			if err != nil {
				return p, err
			}
			p.Shards += vantageShards(bp, 8)
			for _, s := range sums {
				p.Ops += s.Queries
				p.Failed += s.Queries - s.OK
				p.CacheHits += s.StubHits
				p.CacheLookups += s.ProxyQueries
				resolve, stale := s.Resolve, s.StaleAge
				s.Resolve, s.StaleAge = nil, nil
				d.add(s)
				d.sketch(resolve)
				d.sketch(stale)
			}
		}
		p.Digest = d.sum()
		return p, nil
	}, nil
}

func setupHostileNet(seed int64, sz sizes) (passFunc, error) {
	bp, err := blueprint(seed, sz.hostileResolvers, "fiber")
	if err != nil {
		return nil, err
	}
	racing := measure.RacingConfig{Blueprint: bp, Queries: sz.racingQueries}
	failover := measure.FailoverCampaignConfig{Blueprint: bp, Queries: sz.failoverQueries}
	return func(par int, tr *tracer, parent int) (pass, error) {
		p := pass{Shards: vantageShards(bp, 4) + vantageShards(bp, 3)}
		racing, failover := racing, failover
		racing.Parallelism, failover.Parallelism = par, par
		var races []measure.RacingSample
		var fails []measure.FailoverSample
		err := p.call(tr, parent, "measure.RunRacing", func() (err error) {
			races, err = measure.RunRacing(racing)
			return err
		})
		if err != nil {
			return p, err
		}
		err = p.call(tr, parent, "measure.RunFailoverCampaign", func() (err error) {
			fails, err = measure.RunFailoverCampaign(failover)
			return err
		})
		d := newDigester()
		for _, s := range races {
			p.sample(d, s.OK, s)
		}
		for _, s := range fails {
			p.sample(d, s.OK, s)
		}
		p.Digest = d.sum()
		return p, err
	}, nil
}

func setupSuite(seed int64, sz sizes) (passFunc, error) {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.Resolvers = sz.suiteResolvers
	cfg.WebResolvers = 1
	cfg.WebLoads = 1
	cfg.WebPages = sz.suiteWebPages
	cfg.CacheQueries = 40
	cfg.CacheNames = 60
	cfg.ScanScale = sz.suiteScanScale
	exps := experiments.All()
	return func(par int, tr *tracer, parent int) (pass, error) {
		// The top-level campaign has one shard per experiment; the
		// campaigns underneath are not visible from outside.
		p := pass{Shards: len(exps)}
		cfg := cfg
		cfg.Parallelism = par
		var results []experiments.Result
		_ = p.call(tr, parent, "experiments.RunAll", func() error {
			results = experiments.RunAll(experiments.NewRunner(cfg), exps, par)
			return nil
		})
		// The digest is the SHA-256 of the concatenated report texts.
		var text strings.Builder
		for _, r := range results {
			p.Ops++
			if r.Err != nil {
				p.Failed++
				fmt.Fprintf(&text, "%s: error: %v\n", r.Experiment.ID, r.Err)
				continue
			}
			text.WriteString(r.Output)
		}
		sum := sha256.Sum256([]byte(text.String()))
		p.Digest = hex.EncodeToString(sum[:])
		return p, nil
	}, nil
}
