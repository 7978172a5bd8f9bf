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
// campaign's unique cold names.
type CacheWorkloadConfig struct {
	// Blueprint is the resolver population; the campaign is partitioned
	// by vantage and resolver block like the other sharded campaigns.
	Blueprint *resolver.Blueprint
	// Parallelism caps the worker pool (0 = GOMAXPROCS); wall time
	// only, never results.
	Parallelism int
	// ResolverBlock is the shard granularity in resolvers (default 8).
	ResolverBlock int

	// Protocol is the transport the stream runs on (default DoUDP; the
	// cache is transport-agnostic, so E16 measures the cache itself on
	// the cheapest transport and E17 covers the per-transport split).
	Protocol dox.Protocol
	// Queries per [vantage:resolver] stream (default 500).
	Queries int
	// Names sizes the Zipf name universe (default 1000).
	Names int
	// Skew is the Zipf exponent (default 1.2; must be > 1).
	Skew float64

	// StubCache adds an unbounded client-side answer cache in front of
	// the transport: repeated names within TTL never leave the vantage.
	StubCache bool
}

// cacheQueryInterval spaces a stream's queries in virtual time, which is
// what makes TTL expiry observable: a popular name is refreshed before
// its TTL lapses, an unpopular one expires in between.
const cacheQueryInterval = time.Second

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
	if c.ResolverBlock == 0 {
		c.ResolverBlock = 8
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
	Protocol    dox.Protocol

	// Queries and OK count issued and answered queries.
	Queries, OK int
	// StubHits counts queries the client-side stub cache absorbed.
	StubHits int
	// ResolverCache is the resolver-side cache behaviour this stream
	// induced (hits, misses, expirations, evictions).
	ResolverCache cache.Stats

	// Resolve sketches the resolve time of every answered query;
	// HitResolve and MissResolve split it by resolver-cache outcome
	// (stub-cache hits count as zero-cost hits).
	Resolve, HitResolve, MissResolve *stats.Sketch
}

// newCacheSummary returns a summary with empty sketches.
func newCacheSummary(vantage string, resolverIdx int, proto dox.Protocol) CacheWorkloadSummary {
	return CacheWorkloadSummary{
		Vantage:     vantage,
		ResolverIdx: resolverIdx,
		Protocol:    proto,
		Resolve:     stats.NewSketch(),
		HitResolve:  stats.NewSketch(),
		MissResolve: stats.NewSketch(),
	}
}

// MergeCacheSummaries folds per-stream summaries into one aggregate.
// Callers pass summaries in campaign order; sketch counts merge exactly,
// so the aggregate is byte-identical at any parallelism.
func MergeCacheSummaries(parts []CacheWorkloadSummary) CacheWorkloadSummary {
	out := newCacheSummary("all", -1, dox.DoUDP)
	if len(parts) > 0 {
		out.Protocol = parts[0].Protocol
	}
	for _, p := range parts {
		out.Queries += p.Queries
		out.OK += p.OK
		out.StubHits += p.StubHits
		out.ResolverCache.Merge(p.ResolverCache)
		out.Resolve.Merge(p.Resolve)
		out.HitResolve.Merge(p.HitResolve)
		out.MissResolve.Merge(p.MissResolve)
	}
	return out
}

// RunCacheWorkload executes the campaign and returns one summary per
// [vantage : resolver] stream, ordered by (vantage, resolver block,
// resolver). Each shard confines its cache state — the resolvers' shared
// caches and any stub caches — to its own World, which is what keeps the
// summary stream byte-identical at any parallelism.
func RunCacheWorkload(cfg CacheWorkloadConfig) ([]CacheWorkloadSummary, error) {
	cfg.defaults()
	return runSharded(cfg.Blueprint, cfg.Parallelism, cfg.ResolverBlock,
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
	s := newCacheSummary(vp.Name, globalIdx, cfg.Protocol)
	wl := NewZipfWorkload(
		rand.New(rand.NewSource(sim.DeriveSeed(cfg.Blueprint.Seed, 0x21BF, uint64(vp.Index), uint64(globalIdx)))),
		cfg.Skew, cfg.Names)
	var stub *cache.Cache
	if cfg.StubCache {
		stub = cache.New(w.Now, 0)
	}
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
		if stub != nil {
			if resp := stub.AnswerQuery(&q); resp != nil {
				// Absorbed locally: an answered zero-cost cache hit.
				s.StubHits++
				s.OK++
				s.Resolve.Add(0)
				s.HitResolve.Add(0)
				continue
			}
		}
		// DoTCP closes after one exchange (no edns-tcp-keepalive, §3),
		// so it reconnects per query; every other transport keeps one
		// long-lived session, as a busy stub would.
		if client != nil && cfg.Protocol == dox.DoTCP {
			client.Close()
			client = nil
		}
		if client == nil {
			c, err := dox.Connect(cfg.Protocol, dox.Options{
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
		elapsed, resp, ok := cacheStreamQuery(w, client, &q)
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
		if stub != nil {
			stub.StoreResponse(resp)
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
// returns the resolve time and the response.
func cacheStreamQuery(w *sim.World, client dox.Client, q *dnsmsg.Message) (time.Duration, *dnsmsg.Message, bool) {
	type outcome struct {
		elapsed time.Duration
		resp    *dnsmsg.Message
	}
	o, alive := boundedTask(w, "cache-stream-query", queryTimeout, func(done *sim.Future[outcome]) {
		start := w.Now()
		resp, err := client.Query(q)
		if err != nil {
			done.Resolve(outcome{elapsed: -1})
			return
		}
		done.Resolve(outcome{elapsed: w.Now() - start, resp: resp})
	})
	return o.elapsed, o.resp, alive && o.elapsed >= 0
}
