package measure

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dnsproxy"
	"repro/internal/dox"
	"repro/internal/netem"
	"repro/internal/resolver"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ProxyServeConfig parameterizes the proxy serving-semantics campaign
// (E22–E24): per [vantage : resolver] combination one local DNS proxy is
// started and Clients concurrent stub clients issue the same Zipf query
// stream through it in lockstep. Aligned streams put identical queries
// in flight at the same virtual instant, which is exactly the regime
// coalescing, serve-stale and prefetch are built for.
type ProxyServeConfig struct {
	// Blueprint is the resolver population; the campaign is partitioned
	// by vantage and resolver block like the other sharded campaigns.
	Blueprint *resolver.Blueprint
	// Parallelism caps the worker pool (0 = GOMAXPROCS); wall time
	// only, never results.
	Parallelism int

	// Protocol is the proxy's upstream transport (default DoUDP).
	Protocol dox.Protocol
	// Clients is the number of concurrent stub clients per stream
	// (default 4).
	Clients int
	// Queries per client (default 120).
	Queries int
	// Names sizes the Zipf name universe (default 300).
	Names int
	// Skew is the Zipf exponent (default 1.2; must be > 1).
	Skew float64

	// Proxy serving semantics under test (threaded into
	// dnsproxy.Config, whose defaults apply to the stale, revalidation
	// and prefetch timings; the stub cache is always on — it is the
	// layer serve-stale and prefetch live on).
	Coalesce          bool
	ServeStale        bool
	Prefetch          bool
	StubCacheCapacity int
	// UDPTimeout shortens the proxy's upstream retransmission timeout
	// (default: the resolv.conf 5s; E23 uses 500ms so stale fallbacks
	// beat the client timeout).
	UDPTimeout time.Duration

	// ClassifyStart/ClassifyEnd select a virtual-time window: queries
	// *sent* inside [Start, End) are tallied as WindowQueries, and those
	// also *answered* before End as WindowOK (E23's
	// availability-during-outage metric — an answer that only arrives
	// after the outage heals did not help anyone inside it). End == 0
	// disables classification.
	ClassifyStart, ClassifyEnd time.Duration
}

// proxyQueryTimeout bounds one client query. It must exceed the proxy's
// worst-case upstream exchange — (UDPRetries+1) x UDPTimeout for DoUDP —
// or stale answers arrive after the client gave up.
const proxyQueryTimeout = 3 * time.Second

const (
	// proxyQueryInterval spaces each client's queries in virtual time.
	proxyQueryInterval = time.Second
	// proxyResolverBlock is the shard granularity in resolvers.
	proxyResolverBlock = 8
)

func (c *ProxyServeConfig) defaults() {
	// Protocol's zero value is DoUDP, the intended default.
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Queries == 0 {
		c.Queries = 120
	}
	if c.Names == 0 {
		c.Names = 300
	}
	if c.Skew == 0 {
		c.Skew = 1.2
	}
}

// ProxyServeSummary aggregates one [vantage : resolver] proxy stream
// with fixed memory: client-observed resolve times and stale ages go
// into streaming sketches. Summaries gather in shard order and merge
// deterministically (MergeProxyServeSummaries).
type ProxyServeSummary struct {
	Vantage     string
	ResolverIdx int
	Protocol    dox.Protocol

	// Client-side tallies, merged in client order.
	Queries, OK int
	// Refused counts REFUSED responses. The proxy itself never refuses,
	// so this reads 0 unless something between client and proxy does.
	Refused int
	// WindowQueries/WindowOK tally queries sent inside the
	// classification window (zero without one).
	WindowQueries, WindowOK int

	// Proxy-side counters.
	ProxyQueries    int
	StubHits        int
	UpstreamQueries int
	Coalesced       int
	StaleServed     int
	Revalidations   int
	Prefetches      int
	Failures        int

	// Resolve sketches the client-observed latency of answered queries;
	// StaleAge the staleness (age past expiry) of stale-served answers.
	Resolve, StaleAge *stats.Sketch
}

func newProxyServeSummary(vantage string, resolverIdx int, proto dox.Protocol) ProxyServeSummary {
	return ProxyServeSummary{
		Vantage:     vantage,
		ResolverIdx: resolverIdx,
		Protocol:    proto,
		Resolve:     stats.NewSketch(),
		StaleAge:    stats.NewSketch(),
	}
}

// MergeProxyServeSummaries folds per-stream summaries into one
// aggregate. Callers pass summaries in campaign order; sketch counts
// merge exactly, so the aggregate is byte-identical at any parallelism.
func MergeProxyServeSummaries(parts []ProxyServeSummary) ProxyServeSummary {
	out := newProxyServeSummary("all", -1, dox.DoUDP)
	if len(parts) > 0 {
		out.Protocol = parts[0].Protocol
	}
	for _, p := range parts {
		out.Queries += p.Queries
		out.OK += p.OK
		out.Refused += p.Refused
		out.WindowQueries += p.WindowQueries
		out.WindowOK += p.WindowOK
		out.ProxyQueries += p.ProxyQueries
		out.StubHits += p.StubHits
		out.UpstreamQueries += p.UpstreamQueries
		out.Coalesced += p.Coalesced
		out.StaleServed += p.StaleServed
		out.Revalidations += p.Revalidations
		out.Prefetches += p.Prefetches
		out.Failures += p.Failures
		out.Resolve.Merge(p.Resolve)
		out.StaleAge.Merge(p.StaleAge)
	}
	return out
}

// RunProxyServe executes the campaign and returns one summary per
// [vantage : resolver] stream, ordered by (vantage, resolver block,
// resolver). Each shard confines its proxy and cache state to its own
// World, which keeps the summary stream byte-identical at any
// parallelism.
func RunProxyServe(cfg ProxyServeConfig) ([]ProxyServeSummary, error) {
	cfg.defaults()
	return runSharded(cfg.Blueprint, cfg.Parallelism, proxyResolverBlock,
		func(u *resolver.Universe, vp *resolver.Vantage) []ProxyServeSummary {
			var out []ProxyServeSummary
			for idx, res := range u.Resolvers {
				out = append(out, runProxyStream(u, vp, u.GlobalResolverIdx(idx), res, cfg))
			}
			return out
		})
}

// runProxyStream runs one proxy and its aligned client cohort against
// res. Every client draws the identical name sequence — the workload
// RNG is keyed by (campaign seed, vantage, global resolver index), not
// the client — and sends on the same cadence, so round i puts Clients
// identical queries in flight together.
func runProxyStream(u *resolver.Universe, vp *resolver.Vantage, globalIdx int, res *resolver.Resolver, cfg ProxyServeConfig) ProxyServeSummary {
	w := u.W
	s := newProxyServeSummary(vp.Name, globalIdx, cfg.Protocol)
	proxy, err := dnsproxy.New(vp.Backend, dnsproxy.Config{
		Upstream: cfg.Protocol,
		Options: dox.Options{
			Resolver:   res.Addr,
			ServerName: res.Name,
			DoQPort:    res.DoQPort,
			UDPTimeout: cfg.UDPTimeout,
		},
		ListenPort:        uint16(10000 + vp.Index),
		StubCache:         true,
		StubCacheCapacity: cfg.StubCacheCapacity,
		Coalesce:          cfg.Coalesce,
		ServeStale:        cfg.ServeStale,
		Prefetch:          cfg.Prefetch,
	})
	if err != nil {
		return s
	}
	defer proxy.Close()

	names := make([]string, cfg.Queries)
	wl := NewZipfWorkload(
		rand.New(rand.NewSource(sim.DeriveSeed(cfg.Blueprint.Seed, 0x9E22, uint64(vp.Index), uint64(globalIdx)))),
		cfg.Skew, cfg.Names)
	for i := range names {
		names[i], _ = wl.Next()
	}

	type tally struct {
		queries, ok, refused int
		windowQ, windowOK    int
		resolve              *stats.Sketch
	}
	tallies := make([]tally, cfg.Clients)
	wg := sim.NewWaitGroup(w)
	wg.Add(cfg.Clients)
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		tallies[ci].resolve = stats.NewSketch()
		w.Go(func() {
			defer wg.Done()
			runProxyClient(w, vp.Host, proxy.Addr(), names, cfg, &tallies[ci].queries,
				&tallies[ci].ok, &tallies[ci].refused, &tallies[ci].windowQ,
				&tallies[ci].windowOK, tallies[ci].resolve)
		})
	}
	wg.Wait()

	for i := range tallies {
		s.Queries += tallies[i].queries
		s.OK += tallies[i].ok
		s.Refused += tallies[i].refused
		s.WindowQueries += tallies[i].windowQ
		s.WindowOK += tallies[i].windowOK
		s.Resolve.Merge(tallies[i].resolve)
	}
	s.ProxyQueries = proxy.Queries
	s.StubHits = proxy.StubHits
	s.UpstreamQueries = proxy.UpstreamQueries
	s.Coalesced = proxy.Coalesced
	s.StaleServed = proxy.StaleServed
	s.Revalidations = proxy.Revalidations
	s.Prefetches = proxy.Prefetches
	s.Failures = proxy.Failures
	if proxy.StaleAge != nil {
		s.StaleAge.Merge(proxy.StaleAge)
	}
	return s
}

// runProxyClient is one stub client's query loop: send round i's name,
// wait (bounded) for the matching response, tally the outcome. Late
// responses from timed-out rounds are drained by ID match.
func runProxyClient(w *sim.World, host *netem.Host, proxyAddr netip.AddrPort, names []string, cfg ProxyServeConfig,
	queries, ok, refused, windowQ, windowOK *int, resolve *stats.Sketch) {
	sock := host.Dial(netem.ProtoUDP, 8)
	defer sock.Close()
	for i, name := range names {
		if i > 0 {
			w.Sleep(proxyQueryInterval)
		}
		qid := uint16(i + 1)
		q := dnsmsg.NewQuery(qid, name, dnsmsg.TypeA)
		sent := w.Now()
		*queries++
		inWindow := cfg.ClassifyEnd > 0 && sent >= cfg.ClassifyStart && sent < cfg.ClassifyEnd
		if inWindow {
			*windowQ++
		}
		sock.Send(proxyAddr, q.AppendEncode(sock.Pool().Get(512)))
		deadline := sent + proxyQueryTimeout
		for {
			remaining := deadline - w.Now()
			if remaining <= 0 {
				break
			}
			d, alive := sock.RecvTimeout(remaining)
			if !alive {
				break
			}
			resp, err := dnsmsg.Decode(d.Payload)
			sock.Pool().Put(d.Payload)
			if err != nil || resp.ID != qid {
				// A late answer to an earlier, timed-out round.
				continue
			}
			if resp.RCode == dnsmsg.RCodeRefused {
				*refused++
				break
			}
			*ok++
			resolve.AddDuration(w.Now() - sent)
			if inWindow && w.Now() < cfg.ClassifyEnd {
				*windowOK++
			}
			break
		}
	}
}

// Availability returns WindowOK/WindowQueries (1 when no window was
// classified — nothing was unavailable).
func (s ProxyServeSummary) Availability() float64 {
	if s.WindowQueries == 0 {
		return 1
	}
	return float64(s.WindowOK) / float64(s.WindowQueries)
}
