package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/resolver"
	"repro/internal/stats"
)

// The proxy serving-semantics experiments (E22–E24, DESIGN.md §8) share
// one campaign shape: per [vantage : resolver] a local DNS proxy with a
// cohort of aligned stub clients behind it (measure.RunProxyServe). Each
// experiment toggles one serving feature and reports its effect.

// proxyRounds scales the per-client stream length off the cache-campaign
// knob so the tiny test config stays fast, with a floor that keeps the
// dynamics (TTL expiries, outage windows) observable.
func (r *Runner) proxyRounds() int {
	rounds := r.Cfg.CacheQueries / 2
	if rounds < 20 {
		rounds = 20
	}
	return rounds
}

func (r *Runner) proxyNames() int {
	if r.Cfg.CacheNames > 0 {
		return r.Cfg.CacheNames
	}
	return 400
}

// runE22 measures in-flight coalescing: Clients identical queries are in
// flight together each round, so without coalescing every stub-cache
// miss costs the cohort Clients upstream exchanges, and with it exactly
// one. The headline number is the upstream-QPS reduction; the latency
// rows show waiters are not penalized for sharing.
func runE22(r *Runner) (string, error) {
	const clients = 4
	rounds := r.proxyRounds()
	off, on, err := ablation(func(coalesce bool) (measure.ProxyServeSummary, error) {
		bp, err := r.blueprint(120, r.Cfg.WebResolvers, func(p *resolver.Profile) {
			// Isolate the coalescing dynamics: answer every query and pin
			// a short TTL so popular names keep re-expiring into the
			// concurrent-miss regime.
			p.ResponseRate = 1
			p.CacheTTL = 5 * time.Second
		})
		if err != nil {
			return measure.ProxyServeSummary{}, err
		}
		sums, err := measure.RunProxyServe(measure.ProxyServeConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Clients:     clients,
			Queries:     rounds,
			Names:       r.proxyNames(),
			Coalesce:    coalesce,
		})
		if err != nil {
			return measure.ProxyServeSummary{}, err
		}
		return measure.MergeProxyServeSummaries(sums), nil
	})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  fmt.Sprintf("E22 — in-flight query coalescing (%d aligned clients, %d rounds/client)", clients, rounds),
		Header: []string{"coalescing", "answered", "upstream queries", "coalesced", "resolve p50 (ms)", "resolve p95 (ms)"},
	}
	row := func(label string, s measure.ProxyServeSummary) {
		t.Add(label,
			fmt.Sprintf("%d/%d", s.OK, s.Queries),
			fmt.Sprintf("%d", s.UpstreamQueries),
			fmt.Sprintf("%d", s.Coalesced),
			report.Ms(s.Resolve.Quantile(0.5)),
			report.Ms(s.Resolve.Quantile(0.95)))
	}
	row("off", off)
	row("on", on)
	var sb strings.Builder
	sb.WriteString(t.String())
	reduction := 0.0
	if off.UpstreamQueries > 0 {
		reduction = 1 - float64(on.UpstreamQueries)/float64(off.UpstreamQueries)
	}
	fmt.Fprintf(&sb, "upstream-QPS reduction: %s (%d -> %d exchanges for the same %d answered queries)\n",
		stats.FormatPct(reduction), off.UpstreamQueries, on.UpstreamQueries, on.OK)
	sb.WriteString("expectation: with aligned cohorts every concurrent miss collapses to one exchange, approaching (clients-1)/clients\n")
	return sb.String(), nil
}

// runE23 measures RFC 8767 serve-stale across a scheduled total upstream
// outage. The classification window starts one TTL into the outage, when
// every pre-outage entry has expired: without serve-stale nothing can be
// answered there, with it the Zipf head survives on stale answers and is
// revalidated after recovery.
func runE23(r *Runner) (string, error) {
	rounds := r.proxyRounds()
	total := time.Duration(rounds) * time.Second
	ttl := total / 10
	outStart, outEnd := total*2/5, total*7/10
	// Advertised TTLs round up, so a pre-outage entry can outlive the
	// nominal boundary by up to a second; pad the window start past it.
	classifyStart := outStart + ttl + 2*time.Second
	off, on, err := ablation(func(serveStale bool) (measure.ProxyServeSummary, error) {
		bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
			Seed:           r.Cfg.Seed + 130,
			ResolverCounts: resolver.ScaledCounts(r.Cfg.WebResolvers),
			PathPhases:     resolver.OutagePhases(resolver.DefaultLoss, outStart, outEnd),
			MutateProfile: func(p *resolver.Profile) {
				p.ResponseRate = 1
				p.CacheTTL = ttl
			},
		})
		if err != nil {
			return measure.ProxyServeSummary{}, err
		}
		sums, err := measure.RunProxyServe(measure.ProxyServeConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Clients:     2,
			Queries:     rounds,
			Names:       r.proxyNames(),
			ServeStale:  serveStale,
			// Fail fast upstream so the stale fallback beats the client's
			// 3s budget: 3 x 500ms attempts, then answer from the cache.
			UDPTimeout:    500 * time.Millisecond,
			ClassifyStart: classifyStart,
			ClassifyEnd:   outEnd,
		})
		if err != nil {
			return measure.ProxyServeSummary{}, err
		}
		return measure.MergeProxyServeSummaries(sums), nil
	})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title: fmt.Sprintf("E23 — serve-stale availability across a total outage [%s, %s), TTL %s, window [%s, %s)",
			outStart, outEnd, ttl, classifyStart, outEnd),
		Header: []string{"serve-stale", "availability in window", "stale served", "revalidations", "answered overall"},
	}
	row := func(label string, s measure.ProxyServeSummary) {
		t.Add(label,
			fmt.Sprintf("%s (%d/%d)", stats.FormatPct(s.Availability()), s.WindowOK, s.WindowQueries),
			fmt.Sprintf("%d", s.StaleServed),
			fmt.Sprintf("%d", s.Revalidations),
			fmt.Sprintf("%d/%d", s.OK, s.Queries))
	}
	row("off", off)
	row("on", on)
	var sb strings.Builder
	sb.WriteString(t.String())
	if on.StaleAge.N() > 0 {
		fmt.Fprintf(&sb, "answer staleness (age past expiry): p50 %s, p90 %s, max %s over %d stale answers\n",
			on.StaleAge.QuantileDuration(0.5).Round(time.Millisecond),
			on.StaleAge.QuantileDuration(0.9).Round(time.Millisecond),
			time.Duration(on.StaleAge.Max()).Round(time.Millisecond),
			on.StaleAge.N())
	}
	sb.WriteString("expectation: the window starts one TTL into the outage, so the off arm has nothing cached to answer from;\n")
	sb.WriteString("the on arm keeps the Zipf head alive on stale answers and revalidates it once the path heals\n")
	return sb.String(), nil
}

// runE24 measures TTL-expiry prefetch: the hotness tracker marks the
// Zipf head, and the proxy refreshes those names just before expiry, so
// the cohort's repeat queries stay stub hits instead of paying a full
// upstream exchange every TTL.
func runE24(r *Runner) (string, error) {
	rounds := r.proxyRounds()
	// A hot-head regime: a small, highly skewed name universe whose TTL
	// lapses several times per stream. Here the head's periodic cold
	// misses are a visible share of the latency distribution, which is
	// exactly what prefetch removes.
	names := r.proxyNames() / 10
	if names < 12 {
		names = 12
	}
	off, on, err := ablation(func(prefetch bool) (measure.ProxyServeSummary, error) {
		bp, err := r.blueprint(140, r.Cfg.WebResolvers, func(p *resolver.Profile) {
			p.ResponseRate = 1
			p.CacheTTL = 5 * time.Second
		})
		if err != nil {
			return measure.ProxyServeSummary{}, err
		}
		sums, err := measure.RunProxyServe(measure.ProxyServeConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Clients:     2,
			Queries:     rounds,
			Names:       names,
			Skew:        1.5,
			Prefetch:    prefetch,
		})
		if err != nil {
			return measure.ProxyServeSummary{}, err
		}
		return measure.MergeProxyServeSummaries(sums), nil
	})
	if err != nil {
		return "", err
	}
	hitRatio := func(s measure.ProxyServeSummary) float64 {
		if s.ProxyQueries == 0 {
			return 0
		}
		return float64(s.StubHits) / float64(s.ProxyQueries)
	}
	t := &report.Table{
		Title:  fmt.Sprintf("E24 — TTL-expiry prefetch of the Zipf head (%d rounds/client, %d names, TTL 5s)", rounds, names),
		Header: []string{"prefetch", "stub hit ratio", "prefetches", "upstream queries", "resolve p50 (ms)", "resolve p95 (ms)"},
	}
	row := func(label string, s measure.ProxyServeSummary) {
		t.Add(label,
			stats.FormatPct(hitRatio(s)),
			fmt.Sprintf("%d", s.Prefetches),
			fmt.Sprintf("%d", s.UpstreamQueries),
			report.Ms(s.Resolve.Quantile(0.5)),
			report.Ms(s.Resolve.Quantile(0.95)))
	}
	row("off", off)
	row("on", on)
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "stub hit-ratio lift: %s -> %s; p95 lift: %s -> %s ms\n",
		stats.FormatPct(hitRatio(off)), stats.FormatPct(hitRatio(on)),
		report.Ms(off.Resolve.Quantile(0.95)), report.Ms(on.Resolve.Quantile(0.95)))
	sb.WriteString("expectation: hot names are refreshed before expiry, so repeat queries never pay the upstream exchange;\n")
	sb.WriteString("the tail improves because the head's periodic cold misses disappear from the distribution\n")
	return sb.String(), nil
}
