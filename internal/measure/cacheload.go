package measure

import (
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/resolver"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CacheWorkloadConfig parameterizes a Zipf cache-workload campaign: per
// [vantage : resolver] combination, one client issues a popularity-
// skewed query stream against the resolver's shared answer cache,
// modelling many users behind one resolver rather than the single-query
// campaign's unique cold names. The stream always runs DoUDP: the cache
// is transport-agnostic, so E16 measures the cache itself on the
// cheapest transport and E17 covers the per-transport split.
type CacheWorkloadConfig struct {
	// Blueprint is the resolver population; the campaign is partitioned
	// by vantage and resolver block like the other sharded campaigns.
	Blueprint *resolver.Blueprint
	// Parallelism caps the worker pool (0 = GOMAXPROCS); wall time
	// only, never results.
	Parallelism int

	// Queries per [vantage:resolver] stream (default 500).
	Queries int
	// Names sizes the Zipf name universe (default 1000).
	Names int
	// Skew is the Zipf exponent (default 1.2; must be > 1).
	Skew float64
}

// cacheQueryInterval spaces a stream's queries in virtual time, which is
// what makes TTL expiry observable: a popular name is refreshed before
// its TTL lapses, an unpopular one expires in between.
const cacheQueryInterval = time.Second

// cacheResolverBlock is the cache-workload shard granularity in resolvers.
const cacheResolverBlock = 8

func (c *CacheWorkloadConfig) defaults() {
	if c.Queries == 0 {
		c.Queries = 500
	}
	if c.Names == 0 {
		c.Names = 1000
	}
	if c.Skew == 0 {
		c.Skew = 1.2
	}
}

// CacheWorkloadSummary aggregates one query stream with a fixed memory
// budget: resolve times go into streaming sketches, never a sample
// slice, so campaign memory is per-stream-constant no matter how many
// queries flow through. Summaries gather in shard order and merge
// deterministically (MergeCacheSummaries).
type CacheWorkloadSummary struct {
	Vantage     string
	ResolverIdx int

	// Queries and OK count issued and answered queries.
	Queries, OK int
	// ResolverCache is the resolver-side cache behaviour this stream
	// induced (hits, misses, expirations, evictions).
	ResolverCache cache.Stats

	// Resolve sketches the resolve time of every answered query;
	// HitResolve and MissResolve split it by resolver-cache outcome.
	Resolve, HitResolve, MissResolve *stats.Sketch
}

// newCacheSummary returns a summary with empty sketches.
func newCacheSummary(vantage string, resolverIdx int) CacheWorkloadSummary {
	return CacheWorkloadSummary{
		Vantage:     vantage,
		ResolverIdx: resolverIdx,
		Resolve:     stats.NewSketch(),
		HitResolve:  stats.NewSketch(),
		MissResolve: stats.NewSketch(),
	}
}

// MergeCacheSummaries folds per-stream summaries into one aggregate.
// Callers pass summaries in campaign order; sketch counts merge exactly,
// so the aggregate is byte-identical at any parallelism.
func MergeCacheSummaries(parts []CacheWorkloadSummary) CacheWorkloadSummary {
	out := newCacheSummary("all", -1)
	for _, p := range parts {
		out.Queries += p.Queries
		out.OK += p.OK
		out.ResolverCache.Merge(p.ResolverCache)
		out.Resolve.Merge(p.Resolve)
		out.HitResolve.Merge(p.HitResolve)
		out.MissResolve.Merge(p.MissResolve)
	}
	return out
}

// RunCacheWorkload executes the campaign and returns one summary per
// [vantage : resolver] stream, ordered by (vantage, resolver block,
// resolver). Each shard confines its resolvers' shared caches to its own
// World, which is what keeps the summary stream byte-identical at any
// parallelism.
func RunCacheWorkload(cfg CacheWorkloadConfig) ([]CacheWorkloadSummary, error) {
	cfg.defaults()
	return runSharded(cfg.Blueprint, cfg.Parallelism, cacheResolverBlock,
		func(u *resolver.Universe, vp *resolver.Vantage) []CacheWorkloadSummary {
			var out []CacheWorkloadSummary
			for idx, res := range u.Resolvers {
				out = append(out, runCacheStream(u, vp, u.GlobalResolverIdx(idx), res, cfg))
			}
			return out
		})
}

// runCacheStream issues one Zipf query stream from vp against res. The
// workload RNG derives from (campaign seed, vantage, global resolver
// index), so a stream draws the same names whether its resolver is
// instantiated in a whole universe or a single-shard partition.
func runCacheStream(u *resolver.Universe, vp *resolver.Vantage, globalIdx int, res *resolver.Resolver, cfg CacheWorkloadConfig) CacheWorkloadSummary {
	w := u.W
	s := newCacheSummary(vp.Name, globalIdx)
	wl := NewZipfWorkload(
		rand.New(rand.NewSource(sim.DeriveSeed(cfg.Blueprint.Seed, 0x21BF, uint64(vp.Index), uint64(globalIdx)))),
		cfg.Skew, cfg.Names)
	statsBefore := res.CacheStats()

	var client dox.Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	var qid uint16
	for i := 0; i < cfg.Queries; i++ {
		if i > 0 {
			w.Sleep(cacheQueryInterval)
		}
		name, _ := wl.Next()
		qid++
		q := dnsmsg.NewQuery(qid, name, dnsmsg.TypeA)
		s.Queries++
		if client == nil {
			c, err := dox.Connect(dox.DoUDP, dox.Options{
				Backend:    vp.Backend,
				Resolver:   res.Addr,
				ServerName: res.Name,
				DoQPort:    res.DoQPort,
			})
			if err != nil {
				continue
			}
			client = c
		}
		before := res.CacheStats()
		elapsed, ok := cacheStreamQuery(w, client, &q)
		if !ok {
			// Timeout or transport error: drop the session so the next
			// query reconnects cleanly.
			client.Close()
			client = nil
			continue
		}
		s.OK++
		s.Resolve.AddDuration(elapsed)
		if delta := res.CacheStats(); delta.Misses > before.Misses {
			s.MissResolve.AddDuration(elapsed)
		} else {
			s.HitResolve.AddDuration(elapsed)
		}
	}
	after := res.CacheStats()
	s.ResolverCache = cache.Stats{
		Hits:        after.Hits - statsBefore.Hits,
		Misses:      after.Misses - statsBefore.Misses,
		Expirations: after.Expirations - statsBefore.Expirations,
		Evictions:   after.Evictions - statsBefore.Evictions,
	}
	return s
}

// cacheStreamQuery runs one bounded query on an established client and
// returns the resolve time.
func cacheStreamQuery(w *sim.World, client dox.Client, q *dnsmsg.Message) (time.Duration, bool) {
	elapsed, alive := boundedTask(w, "cache-stream-query", queryTimeout, func(done *sim.Future[time.Duration]) {
		start := w.Now()
		if _, err := client.Query(q); err != nil {
			done.Resolve(-1)
			return
		}
		done.Resolve(w.Now() - start)
	})
	return elapsed, alive && elapsed >= 0
}
