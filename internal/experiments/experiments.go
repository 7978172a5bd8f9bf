// Package experiments binds workloads to the paper's tables and figures:
// one registry entry per artifact (see DESIGN.md §4), each producing a
// textual report comparing the measured shape to the paper's published
// numbers. The cmd/experiments binary and the repository's benchmarks
// drive this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/netem"
	"repro/internal/pages"
	"repro/internal/quic"
	"repro/internal/report"
	"repro/internal/resolver"
	"repro/internal/scan"
	"repro/internal/stats"
)

// Config scales the campaigns. The defaults run every experiment in a
// few seconds; Full() reproduces the paper's population sizes.
type Config struct {
	Seed int64
	// Resolvers is the verified-resolver population size (paper: 313).
	Resolvers int
	// Rounds of the single-query campaign (paper: 84 = 2-hourly for a
	// week).
	Rounds int
	// WebLoads per combination (paper: 4).
	WebLoads int
	// WebPages caps the page list (paper: 10).
	WebPages int
	// WebResolvers caps the resolver count for web campaigns (they are
	// far more expensive per combination).
	WebResolvers int
	// ScanScale divides the scan population (1 = the paper's 1216).
	ScanScale int
	// CacheQueries is the per-[vantage:resolver] Zipf stream length of
	// the cache-workload campaigns (E16).
	CacheQueries int
	// CacheNames sizes the Zipf name universe of those campaigns.
	CacheNames int
	// Loss is the path loss rate. Zero selects the 0.3% default; a
	// genuinely lossless configuration uses resolver.NoLoss (E17 builds
	// its clean cached baseline that way regardless of this knob).
	Loss float64
	// RacingPolicy restricts E25's middlebox grid to one named policy
	// from measure.MiddleboxPolicies (empty = the full grid).
	RacingPolicy string
	// Parallelism sizes the campaign worker pools and the number of
	// experiments RunAll executes concurrently (0 = GOMAXPROCS). It
	// scales wall time only: campaign shard plans and seeds never depend
	// on it, so reports are byte-identical at parallelism 1 and N.
	Parallelism int
}

// Default returns a configuration that keeps every experiment fast while
// preserving the distributions' shape.
func Default() Config {
	return Config{
		Seed:         2022,
		Resolvers:    48,
		Rounds:       1,
		WebLoads:     2,
		WebPages:     10,
		WebResolvers: 6,
		ScanScale:    8,
		CacheQueries: 250,
		CacheNames:   400,
		Loss:         0.003,
	}
}

// Full returns the paper-scale configuration (slow: minutes of wall
// time).
func Full() Config {
	c := Default()
	c.Resolvers = 313
	c.Rounds = 4
	c.WebLoads = 4
	c.WebResolvers = 24
	c.ScanScale = 1
	c.CacheQueries = 2000
	c.CacheNames = 4000
	return c
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID       string
	Artifact string
	About    string
	Run      func(r *Runner) (string, error)
}

// Runner caches campaign results so experiments sharing a workload (E3
// through E6 all consume the single-query campaign, E1 and E2 the scan)
// run it once. A Runner is safe for concurrent use by RunAll: the first
// caller of a campaign computes it while later callers wait for the
// cached result, and independent campaigns overlap. An error is cached
// like a result: the only campaign errors come from deterministic
// blueprint construction, so a retry would fail the same way.
type Runner struct {
	Cfg Config

	singleQuery, singleQueryDoH3, burstLoss func() ([]measure.SingleQuerySample, error)
	web, webDoH3                            func() ([]measure.WebSample, error)
	scan                                    func() (scan.FunnelResult, error)
	access                                  func() ([]accessCell[measure.SingleQuerySample], error)
	accessWeb                               func() ([]accessCell[measure.WebSample], error)
}

// NewRunner creates a Runner for cfg.
func NewRunner(cfg Config) *Runner {
	r := &Runner{Cfg: cfg}
	r.singleQuery = sync.OnceValues(r.singleQueryCampaign)
	r.web = sync.OnceValues(r.webCampaign)
	r.scan = sync.OnceValues(r.scanCampaign)
	r.singleQueryDoH3 = sync.OnceValues(r.singleQueryDoH3Campaign)
	r.webDoH3 = sync.OnceValues(r.webDoH3Campaign)
	r.access = sync.OnceValues(r.accessCampaign)
	r.accessWeb = sync.OnceValues(r.accessWebCampaign)
	r.burstLoss = sync.OnceValues(r.burstLossCampaign)
	return r
}

func (r *Runner) blueprint(seedOffset int64, resolvers int, mutate func(*resolver.Profile)) (*resolver.Blueprint, error) {
	return resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           r.Cfg.Seed + seedOffset,
		ResolverCounts: resolver.ScaledCounts(resolvers),
		Loss:           r.Cfg.Loss,
		MutateProfile:  mutate,
	})
}

// singleQueryCampaign runs the default single-query campaign, sharded
// across the worker pool.
func (r *Runner) singleQueryCampaign() ([]measure.SingleQuerySample, error) {
	bp, err := r.blueprint(0, r.Cfg.Resolvers, nil)
	if err != nil {
		return nil, err
	}
	return measure.RunSingleQuery(measure.SingleQueryConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
		Rounds:      r.Cfg.Rounds,
	})
}

// webCampaign runs the default web campaign, sharded across the worker
// pool.
func (r *Runner) webCampaign() ([]measure.WebSample, error) {
	bp, err := r.blueprint(1, r.Cfg.WebResolvers, nil)
	if err != nil {
		return nil, err
	}
	return measure.RunWeb(measure.WebConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
		Pages:       pages.Top10()[:r.Cfg.WebPages],
		Loads:       r.Cfg.WebLoads,
	})
}

// doh3Protocols is the sixth-transport comparison set of E13–E15: the
// two QUIC transports side by side with DoH over HTTP/2.
var doh3Protocols = []dox.Protocol{dox.DoQ, dox.DoH, dox.DoH3}

// singleQueryDoH3Campaign runs the sixth-transport single-query
// campaign consumed by E13 and E14: DoQ, DoH and DoH3 over a fresh
// blueprint.
func (r *Runner) singleQueryDoH3Campaign() ([]measure.SingleQuerySample, error) {
	bp, err := r.blueprint(50, r.Cfg.Resolvers, nil)
	if err != nil {
		return nil, err
	}
	return measure.RunSingleQuery(measure.SingleQueryConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
		Rounds:      r.Cfg.Rounds,
		Protocols:   doh3Protocols,
	})
}

// webDoH3Campaign runs the sixth-transport web campaign consumed by E15.
func (r *Runner) webDoH3Campaign() ([]measure.WebSample, error) {
	bp, err := r.blueprint(60, r.Cfg.WebResolvers, nil)
	if err != nil {
		return nil, err
	}
	return measure.RunWeb(measure.WebConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
		Protocols:   doh3Protocols,
		Pages:       pages.Top10()[:r.Cfg.WebPages],
		Loads:       r.Cfg.WebLoads,
	})
}

// All returns the registry in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Artifact: "§2 scan funnel", About: "1216 DoQ resolvers; 548/706/1149/732 per protocol; 313 verified", Run: runE1},
		{ID: "E2", Artifact: "Fig. 1", About: "geographic and AS distribution of the verified resolvers", Run: runE2},
		{ID: "E3", Artifact: "§3 shares", About: "QUIC/DoQ/TLS version and feature shares", Run: runE3},
		{ID: "E4", Artifact: "Table 1", About: "median single-query sizes and sample counts", Run: runE4},
		{ID: "E5", Artifact: "Fig. 2a", About: "median handshake time per protocol and vantage point", Run: runE5},
		{ID: "E6", Artifact: "Fig. 2b", About: "median resolve time per protocol and vantage point", Run: runE6},
		{ID: "E7", Artifact: "Fig. 3a", About: "CDF of relative FCP differences vs DoUDP", Run: runE7},
		{ID: "E8", Artifact: "Fig. 3b", About: "CDF of relative PLT differences vs DoUDP", Run: runE8},
		{ID: "E9", Artifact: "Fig. 4", About: "PLT grid: DoQ baseline vs DoUDP and DoH per vantage and page", Run: runE9},
		{ID: "E10", Artifact: "§3.1 ablation", About: "DoQ without Session Resumption (amplification limit)", Run: runE10},
		{ID: "E11", Artifact: "§4 ablation", About: "0-RTT enabled at resolvers (future work)", Run: runE11},
		{ID: "E12", Artifact: "§3.2 ablation", About: "DoT proxy in-flight bug vs fixed connection reuse", Run: runE12},
		{ID: "E13", Artifact: "§5 DoH3 sizes", About: "Table-1-style single-query sizes with DoH3: does QPACK+QUIC close the DoH gap?", Run: runE13},
		{ID: "E14", Artifact: "§5 DoH3 timing", About: "handshake and resolve medians per vantage: DoH3 vs DoQ vs DoH", Run: runE14},
		{ID: "E15", Artifact: "§5 DoH3 web", About: "PLT grid with DoH3 as baseline vs DoQ and DoH", Run: runE15},
		{ID: "E16", Artifact: "§4 caching", About: "resolver-cache hit ratio vs Zipf skew and TTL under a many-user workload", Run: runE16},
		{ID: "E17", Artifact: "§4 cached split", About: "cached vs uncached resolve medians per transport on a lossless baseline", Run: runE17},
		{ID: "E18", Artifact: "§4 warm web", About: "PLT grid under a warm shared (stub) cache: does the encrypted penalty survive?", Run: runE18},
		{ID: "E19", Artifact: "§3 access grid", About: "handshake and resolve medians per transport across access-network profiles", Run: runE19},
		{ID: "E20", Artifact: "§3.1 burst loss", About: "resolve tails under Gilbert-Elliott burst loss: DoQ recovery vs the TCP transports", Run: runE20},
		{ID: "E21", Artifact: "§3.2 access web", About: "PLT across access-network profiles: where does the encrypted penalty hurt most?", Run: runE21},
		{ID: "E22", Artifact: "§6 coalescing", About: "in-flight query coalescing: upstream-QPS reduction and tail latency under aligned cohorts", Run: runE22},
		{ID: "E23", Artifact: "§6 serve-stale", About: "RFC 8767 availability and answer-staleness CDF across a scheduled upstream outage", Run: runE23},
		{ID: "E24", Artifact: "§6 prefetch", About: "TTL-expiry prefetch of the Zipf head: stub hit-ratio and p95 resolve lift", Run: runE24},
		{ID: "E25", Artifact: "§7 racing", About: "happy-eyeballs transport racing per middlebox policy: fallback penalty and winning transport", Run: runE25},
		{ID: "E26", Artifact: "§7 migration", About: "PLT with a mid-load wifi-to-4g flip: QUIC connection migration vs TCP reconnect", Run: runE26},
		{ID: "E27", Artifact: "§7 failover", About: "availability through a primary-resolver outage: pinned vs multi-upstream failover", Run: runE27},
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Result is one experiment's report (or failure).
type Result struct {
	Experiment Experiment
	Output     string
	Err        error
}

// RunAll executes the given experiments on a shared Runner, up to
// parallelism at a time (0 = GOMAXPROCS), and returns results in input
// order. Experiments sharing a campaign serialize on the Runner's cache,
// so each campaign still runs exactly once; independent experiments
// (scan, ablations, web) proceed concurrently. Reports are identical at
// any parallelism because every campaign underneath is.
//
// Concurrent experiments each spawn their own campaign worker pool, so
// the total goroutine count can exceed parallelism; goroutines are
// cheap, and actual simultaneous execution is bounded by GOMAXPROCS
// (which cmd/experiments pins to -parallel N).
func RunAll(r *Runner, exps []Experiment, parallelism int) []Result {
	return RunAllFunc(r, exps, parallelism, nil)
}

// RunAllFunc is RunAll with streaming: emit, when non-nil, receives each
// result in input order as soon as it and all earlier experiments have
// completed, so a long run shows progress without giving up the
// input-ordered (and therefore parallelism-independent) output.
func RunAllFunc(r *Runner, exps []Experiment, parallelism int, emit func(Result)) []Result {
	results := make([]Result, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		campaign.Run(r.Cfg.Seed, len(exps), parallelism, func(s campaign.Shard) struct{} {
			e := exps[s.Index]
			out, err := e.Run(r)
			results[s.Index] = Result{Experiment: e, Output: out, Err: err}
			close(done[s.Index])
			return struct{}{}
		})
	}()
	for i := range exps {
		<-done[i]
		if emit != nil {
			emit(results[i])
		}
	}
	<-finished
	return results
}

// --- E1 / E2: scan ---

// scanCampaign runs the sharded discovery funnel.
func (r *Runner) scanCampaign() (scan.FunnelResult, error) {
	return scan.RunFunnel(scan.FunnelConfig{
		Seed:        r.Cfg.Seed + 10,
		Spec:        scan.PaperSpec().Scaled(r.Cfg.ScanScale),
		Parallelism: r.Cfg.Parallelism,
	})
}

func runE1(r *Runner) (string, error) {
	res, err := r.scan()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  fmt.Sprintf("E1 — scan funnel (population scale 1/%d)", r.Cfg.ScanScale),
		Header: []string{"stage", "measured", "paper(scaled)", "paper(full)"},
	}
	scale := func(v int) string { return fmt.Sprint(v / r.Cfg.ScanScale) }
	t.Add("addresses probed", fmt.Sprint(res.Probed), "-", "-")
	t.Add("QUIC responsive", fmt.Sprint(res.QUICResponsive), "-", "-")
	t.Add("DoQ verified (ALPN)", fmt.Sprint(res.DoQVerified), scale(1216), "1216")
	t.Add("  + DoUDP", fmt.Sprint(res.Support[dox.DoUDP]), scale(548), "548")
	t.Add("  + DoTCP", fmt.Sprint(res.Support[dox.DoTCP]), scale(706), "706")
	t.Add("  + DoT", fmt.Sprint(res.Support[dox.DoT]), scale(1149), "1149")
	t.Add("  + DoH", fmt.Sprint(res.Support[dox.DoH]), scale(732), "732")
	t.Add("  + DoH3 (beyond paper)", fmt.Sprint(res.Support[dox.DoH3]), "-", "-")
	t.Add("verified DoX resolvers", fmt.Sprint(res.Verified), scale(313), "313")
	return t.String(), nil
}

func runE2(r *Runner) (string, error) {
	res, err := r.scan()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E2 — verified resolver distribution (Fig. 1)",
		Header: []string{"continent", "measured", "paper(full)"},
	}
	paper := map[geo.Continent]int{geo.EU: 130, geo.AS: 128, geo.NA: 49, geo.AF: 2, geo.OC: 2, geo.SA: 2}
	for _, c := range geo.Continents {
		t.Add(c.String(), fmt.Sprint(res.ByContinent[c]), fmt.Sprint(paper[c]))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("Top Autonomous Systems (paper: ORACLE 15.0%, DIGITALOCEAN 6.4%, MNGTNET 5.8%, OVHCLOUD 5.1%):\n")
	keys := report.KeysByValue(res.ByASN)
	for i, as := range keys {
		if i >= 4 {
			break
		}
		fmt.Fprintf(&sb, "  %-14s %3d (%s)\n", as, res.ByASN[as], report.Pct(res.ByASN[as], res.Verified))
	}
	return sb.String(), nil
}

// --- E3: version and feature shares ---

func runE3(r *Runner) (string, error) {
	samples, err := r.singleQuery()
	if err != nil {
		return "", err
	}
	quicVer := map[string]int{}
	alpn := map[string]int{}
	tlsVer := map[string]int{}
	doqN, encN, resumed, zrtt, vn, tok := 0, 0, 0, 0, 0, 0
	for _, s := range samples {
		if !s.OK {
			continue
		}
		if s.Protocol == dox.DoQ {
			doqN++
			quicVer[quic.VersionName(s.M.QUICVersion)]++
			alpn[s.M.DoQALPN]++
			if s.M.UsedVN {
				vn++
			}
			if s.M.UsedToken {
				tok++
			}
		}
		if s.Protocol.Encrypted() {
			encN++
			tlsVer[s.M.TLSVersion.String()]++
			if s.M.UsedResumption {
				resumed++
			}
			if s.M.Used0RTT {
				zrtt++
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("E3 — protocol version and feature shares (§3)\n")
	sb.WriteString("QUIC versions (paper: v1 89.1%, draft-34 8.5%, draft-32 1.8%, draft-29 0.6%):\n")
	for _, k := range report.KeysByValue(quicVer) {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, report.Pct(quicVer[k], doqN))
	}
	sb.WriteString("DoQ versions (paper: doq-i02 87.4%, doq-i03 10.8%, doq-i00 1.8%):\n")
	for _, k := range report.KeysByValue(alpn) {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, report.Pct(alpn[k], doqN))
	}
	sb.WriteString("TLS versions (paper: ~99% TLS 1.3):\n")
	for _, k := range report.KeysByValue(tlsVer) {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, report.Pct(tlsVer[k], encN))
	}
	fmt.Fprintf(&sb, "Session Resumption used: %s (paper: all TLS 1.3 measurements)\n", report.Pct(resumed, encN))
	fmt.Fprintf(&sb, "0-RTT used: %s (paper: no resolver supports it)\n", report.Pct(zrtt, encN))
	fmt.Fprintf(&sb, "DoQ address-validation token reused: %s; Version Negotiation on measured conn: %s (paper: avoided via caching)\n",
		report.Pct(tok, doqN), report.Pct(vn, doqN))
	return sb.String(), nil
}

// --- E4: Table 1 ---

func runE4(r *Runner) (string, error) {
	samples, err := r.singleQuery()
	if err != nil {
		return "", err
	}
	return sizeTable(samples, dox.Protocols,
		"E4 — Table 1: median single-query sizes (bytes of IP payload)", "paper(DoQ/DoH/DoT)",
		[]string{"4444/2163/1522", "2564/569/551", "1304/211/211", "190/579/261", "386/804/499"},
		"~155-160k each (paper)"), nil
}

// sizeRows are Table 1's rows, each one byte count (IP payload) of a
// measured exchange.
var sizeRows = []struct {
	name  string
	bytes func(measure.SingleQuerySample) float64
}{
	{"Total", func(s measure.SingleQuerySample) float64 {
		return float64(s.M.HandshakeTx + s.M.HandshakeRx + s.M.QueryTx + s.M.QueryRx)
	}},
	{"Handshake C->R", func(s measure.SingleQuerySample) float64 { return float64(s.M.HandshakeTx) }},
	{"Handshake R->C", func(s measure.SingleQuerySample) float64 { return float64(s.M.HandshakeRx) }},
	{"DNS Query", queryBytes},
	{"DNS Response", func(s measure.SingleQuerySample) float64 { return float64(s.M.QueryRx) }},
}

func queryBytes(s measure.SingleQuerySample) float64 { return float64(s.M.QueryTx) }

// sizeTable renders a Table-1-style size table: per row, the median of
// each protocol's OK samples followed by the paper's figure (paper[i]
// for sizeRows[i]), then a row counting the OK samples.
func sizeTable(samples []measure.SingleQuerySample, protos []dox.Protocol, title, paperHeader string, paper []string, samplesNote string) string {
	header := []string{"row"}
	for _, p := range protos {
		header = append(header, p.String())
	}
	t := &report.Table{Title: title, Header: append(header, paperHeader)}
	for i, row := range sizeRows {
		cells := []string{row.name}
		for _, p := range protos {
			cells = append(cells, fmt.Sprintf("%.0f", median(samples, p, row.bytes)))
		}
		t.Add(append(cells, paper[i])...)
	}
	counts := []string{"Samples OK"}
	for _, p := range protos {
		n := 0
		for _, s := range samples {
			if s.OK && s.Protocol == p {
				n++
			}
		}
		counts = append(counts, fmt.Sprint(n))
	}
	t.Add(append(counts, samplesNote)...)
	return t.String()
}

// median is the median of field over p's OK samples (0 without any).
func median(samples []measure.SingleQuerySample, p dox.Protocol, field func(measure.SingleQuerySample) float64) float64 {
	var xs []float64
	for _, s := range samples {
		if s.OK && s.Protocol == p {
			xs = append(xs, field(s))
		}
	}
	return stats.Median(xs)
}

func handshakeTime(s measure.SingleQuerySample) float64 { return float64(s.Handshake) }
func resolveTime(s measure.SingleQuerySample) float64   { return float64(s.Resolve) }
func totalTime(s measure.SingleQuerySample) float64     { return float64(s.Total) }

// ablation runs an experiment's off and on arms, in that order.
func ablation[T any](run func(on bool) (T, error)) (off, on T, err error) {
	if off, err = run(false); err != nil {
		return off, on, err
	}
	on, err = run(true)
	return off, on, err
}

// --- E5 / E6: Fig. 2 matrices ---

func fig2Matrix(samples []measure.SingleQuerySample, title string, f func(measure.SingleQuerySample) float64, protos []dox.Protocol, skipUDP bool) string {
	rowsOrder := append([]string{"Total"}, vantageNames()...)
	header := []string{"vantage"}
	for _, p := range protos {
		header = append(header, p.String())
	}
	t := &report.Table{Title: title, Header: header}
	for _, rowName := range rowsOrder {
		cells := []string{rowName}
		for _, p := range protos {
			if p == dox.DoUDP && skipUDP {
				cells = append(cells, "-")
				continue
			}
			var xs []float64
			for _, s := range samples {
				if !s.OK || s.Protocol != p {
					continue
				}
				if rowName != "Total" && s.Vantage != rowName {
					continue
				}
				xs = append(xs, f(s))
			}
			cells = append(cells, report.Ms(stats.Median(xs)))
		}
		t.Add(cells...)
	}
	return t.String()
}

func vantageNames() []string {
	var out []string
	for _, vp := range geo.VantagePoints() {
		out = append(out, vp.Name)
	}
	return out
}

func runE5(r *Runner) (string, error) {
	samples, err := r.singleQuery()
	if err != nil {
		return "", err
	}
	s := fig2Matrix(samples, "E5 — Fig. 2a: median handshake time (ms)", handshakeTime, dox.Protocols, true)
	return s + "paper Total row: DoTCP 183.2, DoQ 186.7, DoH 375.8, DoT 376.6\n", nil
}

func runE6(r *Runner) (string, error) {
	samples, err := r.singleQuery()
	if err != nil {
		return "", err
	}
	s := fig2Matrix(samples, "E6 — Fig. 2b: median resolve time (ms)", resolveTime, dox.Protocols, false)
	return s + "paper Total row: DoUDP 183.8, DoTCP 184.8, DoQ 185.4, DoH 187.3, DoT 185.7\n", nil
}

// --- E7 / E8 / E9: web figures ---

// comboKey names one [vantage : resolver : page] web combination.
type comboKey struct {
	vantage  string
	resolver int
	page     string
}

// cellKey names one Fig. 4 grid cell: a vantage and a page.
type cellKey struct {
	vantage string
	page    string
}

// relDiffs holds, for each [vantage : resolver : page] combination, the
// relative difference of every protocol's median metric against the
// baseline protocol's median.
type relDiffs struct {
	// series pools the differences of all combinations per protocol
	// (Fig. 3's CDF input).
	series map[dox.Protocol][]float64
	// cells pools them per (vantage, page) across resolvers (Fig. 4's
	// grid input). A cell exists once one of its combinations has a
	// baseline, even if no other protocol was measured there.
	cells map[cellKey]map[dox.Protocol][]float64
}

// relDiff computes the per-combination differences against baseline
// over the OK samples. A combination whose baseline median is 0 is
// skipped; since stats.Median(nil) is 0, that covers a combination
// without baseline samples too.
func relDiff(samples []measure.WebSample, metric func(measure.WebSample) time.Duration, baseline dox.Protocol) relDiffs {
	med := map[comboKey]map[dox.Protocol][]float64{}
	for _, s := range samples {
		if !s.OK {
			continue
		}
		k := comboKey{s.Vantage, s.ResolverIdx, s.Page}
		if med[k] == nil {
			med[k] = map[dox.Protocol][]float64{}
		}
		med[k][s.Protocol] = append(med[k][s.Protocol], float64(metric(s)))
	}
	out := relDiffs{series: map[dox.Protocol][]float64{}, cells: map[cellKey]map[dox.Protocol][]float64{}}
	for k, perProto := range med {
		b := stats.Median(perProto[baseline])
		if b == 0 {
			continue
		}
		ck := cellKey{k.vantage, k.page}
		cell := out.cells[ck]
		if cell == nil {
			cell = map[dox.Protocol][]float64{}
			out.cells[ck] = cell
		}
		for p, xs := range perProto {
			if p == baseline {
				continue
			}
			d := stats.RelDiff(stats.Median(xs), b)
			out.series[p] = append(out.series[p], d)
			cell[p] = append(cell[p], d)
		}
	}
	return out
}

func plt(s measure.WebSample) time.Duration { return s.PLT }

// positives counts the entries of a relDiffs series above zero: the
// combinations where the protocol was slower than the baseline.
func positives(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return n
}

// gridTable renders the Fig. 4 grid: one row per vantage and one column
// per page, each cell "a|b", the median differences of protocols a and b
// ("-" for a cell without a baseline).
func gridTable(title string, cells map[cellKey]map[dox.Protocol][]float64, pgs []*pages.Page, a, b dox.Protocol) string {
	header := []string{"vantage"}
	for _, pg := range pgs {
		header = append(header, pg.Name)
	}
	t := &report.Table{Title: title, Header: header}
	for _, vp := range vantageNames() {
		row := []string{vp}
		for _, pg := range pgs {
			m := cells[cellKey{vp, pg.Name}]
			if m == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, stats.FormatPct(stats.Median(m[a]))+"|"+stats.FormatPct(stats.Median(m[b])))
		}
		t.Add(row...)
	}
	return t.String()
}

func fig3(samples []measure.WebSample, title string, metric func(measure.WebSample) time.Duration) string {
	series := relDiff(samples, metric, dox.DoUDP).series
	var sb strings.Builder
	sb.WriteString(title + "\n")
	thresholds := []float64{0, 0.10, 0.20}
	for _, p := range []dox.Protocol{dox.DoQ, dox.DoT, dox.DoH, dox.DoTCP} {
		c := stats.NewCDF(series[p])
		sb.WriteString(report.CDFSummary(p.String(), c, thresholds, -0.2, 0.8) + "\n")
	}
	return sb.String()
}

func runE7(r *Runner) (string, error) {
	samples, err := r.web()
	if err != nil {
		return "", err
	}
	out := fig3(samples, "E7 — Fig. 3a: relative FCP difference vs DoUDP (per-combo medians)",
		func(s measure.WebSample) time.Duration { return s.FCP })
	return out + "paper: ~40% of DoQ loads delay FCP by <=10%; DoT/DoH delay >20% at that fraction\n", nil
}

func runE8(r *Runner) (string, error) {
	samples, err := r.web()
	if err != nil {
		return "", err
	}
	out := fig3(samples, "E8 — Fig. 3b: relative PLT difference vs DoUDP (per-combo medians)", plt)
	return out + "paper: <15% of DoQ loads increase PLT by >15%; >40% of DoH loads do\n", nil
}

func runE9(r *Runner) (string, error) {
	samples, err := r.web()
	if err != nil {
		return "", err
	}
	d := relDiff(samples, plt, dox.DoQ)
	var sb strings.Builder
	sb.WriteString(gridTable("E9 — Fig. 4: median relative PLT vs DoQ baseline (DoUDP | DoH), per vantage and page",
		d.cells, pages.Top10(), dox.DoUDP, dox.DoH))
	doh := d.series[dox.DoH]
	fmt.Fprintf(&sb, "DoQ faster than DoH in %s of [vantage:resolver:page] combinations (paper: DoQ mostly improves on DoH; up to 10%% for simple pages)\n",
		report.Pct(positives(doh), len(doh)))
	// Amortization: rel diff DoUDP-vs-DoQ per page (negative = DoUDP faster).
	sb.WriteString("Amortization (median DoUDP-vs-DoQ rel. PLT per page; paper: -10% simple pages -> ~-2% complex):\n")
	pgs := pages.Top10()
	sort.SliceStable(pgs, func(i, j int) bool { return pgs[i].DNSQueryCount() < pgs[j].DNSQueryCount() })
	for _, pg := range pgs {
		var xs []float64
		for _, vp := range vantageNames() {
			xs = append(xs, d.cells[cellKey{vp, pg.Name}][dox.DoUDP]...)
		}
		if len(xs) > 0 {
			fmt.Fprintf(&sb, "  %-10s (%d queries): %s\n", pg.Name, pg.DNSQueryCount(), stats.FormatPct(stats.Median(xs)))
		}
	}
	return sb.String(), nil
}

// --- E10 / E11 / E12: ablations ---

func runE10(r *Runner) (string, error) {
	bp, err := r.blueprint(20, r.Cfg.Resolvers, nil)
	if err != nil {
		return "", err
	}
	protos := []dox.Protocol{dox.DoQ, dox.DoH, dox.DoT}
	with, without, err := ablation(func(disable bool) ([]measure.SingleQuerySample, error) {
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint: bp, Parallelism: r.Cfg.Parallelism,
			Protocols: protos, DisableResumption: disable,
		})
	})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E10 — handshake medians with vs without Session Resumption (ms)",
		Header: []string{"protocol", "resumed", "cold", "penalty"},
	}
	for _, p := range protos {
		a := median(with, p, handshakeTime)
		b := median(without, p, handshakeTime)
		t.Add(p.String(), report.Ms(a), report.Ms(b), stats.FormatPct(stats.RelDiff(b, a)))
	}
	return t.String() + "paper: ~40% of cold DoQ handshakes pay +1 RTT (amplification limit); Session Resumption removes it\n", nil
}

func runE11(r *Runner) (string, error) {
	base, early, err := ablation(func(zeroRTT bool) ([]measure.SingleQuerySample, error) {
		bp, err := r.blueprint(30, r.Cfg.Resolvers, func(p *resolver.Profile) {
			p.AcceptEarlyData = zeroRTT
		})
		if err != nil {
			return nil, err
		}
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint: bp, Parallelism: r.Cfg.Parallelism,
			Protocols: []dox.Protocol{dox.DoQ}, Use0RTT: zeroRTT,
		})
	})
	if err != nil {
		return "", err
	}
	used := 0
	okN := 0
	for _, s := range early {
		if s.OK {
			okN++
			if s.M.Used0RTT {
				used++
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("E11 — 0-RTT at resolvers (the paper's future work, §4)\n")
	fmt.Fprintf(&sb, "median DoQ total response time (connect to answer): baseline %sms, with 0-RTT %sms (0-RTT used in %s of sessions)\n",
		report.Ms(median(base, dox.DoQ, totalTime)), report.Ms(median(early, dox.DoQ, totalTime)), report.Pct(used, okN))
	sb.WriteString("expectation: 0-RTT shifts DoQ total response time close to DoUDP's single round trip\n")
	return sb.String(), nil
}

func runE12(r *Runner) (string, error) {
	buggy, fixed, err := ablation(func(fixed bool) ([]measure.WebSample, error) {
		bp, err := r.blueprint(40, r.Cfg.WebResolvers, nil)
		if err != nil {
			return nil, err
		}
		return measure.RunWeb(measure.WebConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Protocols:   []dox.Protocol{dox.DoUDP, dox.DoT},
			Pages:       pages.Top10()[:r.Cfg.WebPages],
			Loads:       r.Cfg.WebLoads,
			FixDoTReuse: fixed,
		})
	})
	if err != nil {
		return "", err
	}
	med := func(samples []measure.WebSample) float64 {
		return stats.Median(relDiff(samples, plt, dox.DoUDP).series[dox.DoT])
	}
	var sb strings.Builder
	sb.WriteString("E12 — DoT proxy in-flight bug (paper §3.2 root cause + community contribution)\n")
	fmt.Fprintf(&sb, "median DoT PLT penalty vs DoUDP: buggy proxy %s, fixed proxy %s\n",
		stats.FormatPct(med(buggy)), stats.FormatPct(med(fixed)))
	sb.WriteString("paper: the bug repeats the full DoT handshake in ~60% of page loads, making DoT look worse than DoH;\n")
	sb.WriteString("the authors' upstream fix (reproduced by FixDoTReuse) removes the artifact\n")
	return sb.String(), nil
}

// --- E13 / E14 / E15: the sixth transport (DoH3) ---

// runE13 answers the paper's §5 open question in Table 1 terms: once DoH
// rides HTTP/3 over the same QUIC stack as DoQ, how much of its size
// overhead survives? QPACK's static-table references replace the
// first-request HPACK literals, the HTTP/2 preface and TCP+TLS framing
// disappear, and the remaining gap to DoQ is pure HTTP framing.
func runE13(r *Runner) (string, error) {
	samples, err := r.singleQueryDoH3()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(sizeTable(samples, doh3Protocols,
		"E13 — Table-1-style median single-query sizes with DoH3 (bytes of IP payload)", "paper(DoQ/DoH)",
		[]string{"4444/2163", "2564/569", "1304/211", "190/579", "386/804"},
		"no DoH3 in paper (§5)"))
	qH, qH3, qQ := median(samples, dox.DoH, queryBytes), median(samples, dox.DoH3, queryBytes), median(samples, dox.DoQ, queryBytes)
	fmt.Fprintf(&sb, "DoH3 median query: %.0f B vs DoH %.0f B (%s; QPACK static refs, no TCP/TLS layering) and DoQ %.0f B (%s; HTTP framing remains)\n",
		qH3, qH, stats.FormatPct(stats.RelDiff(qH3, qH)), qQ, stats.FormatPct(stats.RelDiff(qH3, qQ)))
	sb.WriteString("expectation (§5): moving DoH onto QUIC sheds most of the framing/header overhead but not all of DoQ's edge\n")
	return sb.String(), nil
}

func runE14(r *Runner) (string, error) {
	samples, err := r.singleQueryDoH3()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(fig2Matrix(samples, "E14 — median handshake time per vantage: DoH3 vs DoQ vs DoH (ms)",
		handshakeTime, doh3Protocols, false))
	sb.WriteString(fig2Matrix(samples, "E14 — median resolve time per vantage (ms)", resolveTime, doh3Protocols, false))
	sb.WriteString("expectation: DoH3 handshakes match DoQ (one combined QUIC round trip, resumed), one RTT below DoH's TCP+TLS; resolve times converge across all three\n")
	return sb.String(), nil
}

// runE15 renders the Fig. 4 grid with DoH3 as the baseline: per vantage
// and page, the median relative PLT of DoQ and DoH against DoH3.
func runE15(r *Runner) (string, error) {
	samples, err := r.webDoH3()
	if err != nil {
		return "", err
	}
	d := relDiff(samples, plt, dox.DoH3)
	var sb strings.Builder
	sb.WriteString(gridTable("E15 — PLT grid, DoH3 baseline: median relative PLT (DoQ | DoH), per vantage and page",
		d.cells, pages.Top10(), dox.DoQ, dox.DoH))
	doh := d.series[dox.DoH]
	fmt.Fprintf(&sb, "DoH3 faster than DoH in %s of [vantage:resolver:page] combinations (positive DoH cells = DoH slower than the DoH3 baseline)\n",
		report.Pct(positives(doh), len(doh)))
	sb.WriteString("expectation (§5): page loads over DoH3 sit at DoQ's level — the HTTP layer costs bytes, not round trips\n")
	return sb.String(), nil
}

// --- E16 / E17 / E18: caching and Zipf workloads ---

// cacheGridSkews and cacheGridTTLs span the E16 grid: from a nearly
// flat popularity law to a heavily concentrated one, and from a
// short-lived record to a long-lived one.
var (
	cacheGridSkews = []float64{1.05, 1.3, 2.0}
	cacheGridTTLs  = []time.Duration{30 * time.Second, 300 * time.Second, 3600 * time.Second}
)

// runE16 measures the resolver-side cache under a many-users workload:
// per (Zipf skew, record TTL) cell, a query stream with that popularity
// law runs against resolvers whose answers live for that TTL, and the
// cell reports the shared cache's hit ratio. This is the regime the
// paper appeals to when it attributes the cached/uncached resolution
// split to resolver caching — the simulator could not express it while
// every campaign query was a unique cold name.
func runE16(r *Runner) (string, error) {
	queries, names := r.Cfg.CacheQueries, r.Cfg.CacheNames
	if queries == 0 {
		queries = 250
	}
	if names == 0 {
		names = 400
	}
	header := []string{"TTL \\ skew"}
	for _, s := range cacheGridSkews {
		header = append(header, fmt.Sprintf("%.2f", s))
	}
	t := &report.Table{
		Title:  fmt.Sprintf("E16 — resolver-cache hit ratio vs Zipf skew and TTL (%d queries/stream, %d names)", queries, names),
		Header: header,
	}
	var mid measure.CacheWorkloadSummary
	for ti, ttl := range cacheGridTTLs {
		cells := []string{ttl.String()}
		for si, skew := range cacheGridSkews {
			bp, err := r.blueprint(70+int64(ti*len(cacheGridSkews)+si), r.Cfg.WebResolvers, func(p *resolver.Profile) {
				// The cell isolates cache dynamics: answer every query
				// and pin the TTL under test.
				p.ResponseRate = 1
				p.CacheTTL = ttl
			})
			if err != nil {
				return "", err
			}
			sums, err := measure.RunCacheWorkload(measure.CacheWorkloadConfig{
				Blueprint:   bp,
				Parallelism: r.Cfg.Parallelism,
				Queries:     queries,
				Names:       names,
				Skew:        skew,
			})
			if err != nil {
				return "", err
			}
			all := measure.MergeCacheSummaries(sums)
			cells = append(cells, fmt.Sprintf("%.1f%%", all.ResolverCache.HitRatio()*100))
			if ti == 1 && si == 1 {
				mid = all
			}
		}
		t.Add(cells...)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "centre cell (skew 1.30, TTL 5m): %d/%d answered; median resolve hit %s ms vs miss %s ms; %d expirations\n",
		mid.OK, mid.Queries,
		report.Ms(float64(mid.HitResolve.MedianDuration())), report.Ms(float64(mid.MissResolve.MedianDuration())),
		mid.ResolverCache.Expirations)
	sb.WriteString("expectation: hit ratio rises with skew (popular names dominate) and with TTL (fewer expirations)\n")
	return sb.String(), nil
}

// runE17 reproduces the paper's cached/uncached split per transport on
// a genuinely lossless baseline — the configuration the zero-loss trap
// made inexpressible. Both campaigns warm the session (ticket, token,
// version); the uncached arm then flushes the resolver's answer cache,
// so the only difference between the two medians is upstream recursion.
func runE17(r *Runner) (string, error) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           r.Cfg.Seed + 80,
		ResolverCounts: resolver.ScaledCounts(r.Cfg.Resolvers),
		Loss:           resolver.NoLoss,
	})
	if err != nil {
		return "", err
	}
	cached, uncached, err := ablation(func(flush bool) ([]measure.SingleQuerySample, error) {
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint:          bp,
			Parallelism:        r.Cfg.Parallelism,
			FlushResolverCache: flush,
		})
	})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E17 — median resolve time, cached vs uncached, lossless paths (ms)",
		Header: []string{"protocol", "cached", "uncached", "recursion cost"},
	}
	for _, p := range dox.Protocols {
		c := median(cached, p, resolveTime)
		u := median(uncached, p, resolveTime)
		t.Add(p.String(), report.Ms(c), report.Ms(u), stats.FormatPct(stats.RelDiff(u, c)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("paper: cached responses collapse upstream recursion, leaving the encrypted handshake as the dominant cost;\n")
	sb.WriteString("the uncached-minus-cached gap approximates the population's median recursive-lookup latency on every transport\n")
	return sb.String(), nil
}

// runE18 renders the Fig. 4-style PLT grid under a warm shared cache:
// each combination's DNS proxy keeps a client-side answer cache that
// survives session resets, so the warming navigation leaves the
// measured loads resolving repeated names locally.
func runE18(r *Runner) (string, error) {
	protos := []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH}
	cold, warm, err := ablation(func(warm bool) ([]measure.WebSample, error) {
		bp, err := r.blueprint(90, r.Cfg.WebResolvers, nil)
		if err != nil {
			return nil, err
		}
		return measure.RunWeb(measure.WebConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Protocols:   protos,
			Pages:       pages.Top10()[:r.Cfg.WebPages],
			Loads:       r.Cfg.WebLoads,
			StubCache:   warm,
		})
	})
	if err != nil {
		return "", err
	}
	warmDiffs, coldDiffs := relDiff(warm, plt, dox.DoUDP), relDiff(cold, plt, dox.DoUDP)
	overall := func(d relDiffs, p dox.Protocol) string { return stats.FormatPct(stats.Median(d.series[p])) }
	var sb strings.Builder
	sb.WriteString(gridTable("E18 — PLT grid under a warm shared (stub) cache: median relative PLT vs DoUDP (DoQ | DoH)",
		warmDiffs.cells, pages.Top10()[:r.Cfg.WebPages], dox.DoQ, dox.DoH))
	fmt.Fprintf(&sb, "median PLT penalty vs DoUDP, cold proxy -> warm stub cache: DoQ %s -> %s, DoH %s -> %s\n",
		overall(coldDiffs, dox.DoQ), overall(warmDiffs, dox.DoQ), overall(coldDiffs, dox.DoH), overall(warmDiffs, dox.DoH))
	sb.WriteString("expectation: with repeated names absorbed at the stub, upstream DNS leaves the page-load critical path\n")
	sb.WriteString("and the encrypted transports' PLT penalty shrinks toward DoUDP's\n")
	return sb.String(), nil
}

// --- E19 / E20 / E21: the dynamic link model ---

// accessCell is one access profile's sample stream in the E19/E21
// grids.
type accessCell[S any] struct {
	profile string
	samples []S
}

// accessGrid runs one campaign per named netem access profile, best to
// worst. Every cell rebuilds the same blueprint (same seed) behind its
// profile, so the resolver population, the vantage placement and all
// per-resolver randomness match across cells: the only difference is
// the access link every vantage sits behind, and any shift in the
// medians is attributable to the link model alone.
func accessGrid[S any](r *Runner, seedOffset int64, resolvers int, run func(*resolver.Blueprint) ([]S, error)) ([]accessCell[S], error) {
	var out []accessCell[S]
	for _, profile := range netem.ProfileNames() {
		bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
			Seed:           r.Cfg.Seed + seedOffset,
			ResolverCounts: resolver.ScaledCounts(resolvers),
			Loss:           r.Cfg.Loss,
			Access:         profile,
		})
		if err != nil {
			return nil, err
		}
		samples, err := run(bp)
		if err != nil {
			return nil, err
		}
		out = append(out, accessCell[S]{profile: profile, samples: samples})
	}
	return out, nil
}

// accessCampaign runs the per-profile single-query grid consumed by
// E19: the same population behind each named access link.
func (r *Runner) accessCampaign() ([]accessCell[measure.SingleQuerySample], error) {
	return accessGrid(r, 100, r.Cfg.Resolvers, func(bp *resolver.Blueprint) ([]measure.SingleQuerySample, error) {
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Rounds:      r.Cfg.Rounds,
		})
	})
}

// The E20 burst-loss schedule: the campaign alternates 60-second clean
// and bursty windows, so every shard's serial measurement loop (paced
// by QuerySpacing) keeps crossing degrade/recover boundaries. In the
// bursty windows a Gilbert-Elliott chain with ~4-datagram mean bursts
// at 45% loss replaces the baseline independent loss.
const (
	e20Period = 60 * time.Second
	// e20Steps covers over four simulated hours. The campaign packs its
	// rounds e20RoundInterval apart (not the default 2h — round spacing
	// is sampling, not a subject here), so even a -full run ends long
	// before the schedule does and the phase classification below never
	// desynchronizes. Lookup is a binary search (netem.PathAt) and the
	// per-pair step slices are shard-transient, so the step count costs
	// neither send-path time nor resident memory.
	e20Steps         = 256
	e20RoundInterval = 5 * time.Minute
)

var e20Burst = netem.BurstLoss{PGoodBad: 0.08, PBadGood: 0.25, LossBad: 0.45}

func e20Phases(baseLoss float64) []resolver.PathPhase {
	phases := make([]resolver.PathPhase, e20Steps)
	for i := range phases {
		phases[i].At = time.Duration(i) * e20Period
		if i%2 == 1 {
			phases[i].Burst = e20Burst
		} else {
			phases[i].Loss = baseLoss
		}
	}
	return phases
}

// e20InBurst classifies a sample by its shard-local measurement time,
// mirroring the installed schedule exactly: past the schedule horizon
// the last (bursty) step holds forever, so samples there classify as
// bursty rather than resuming a phantom alternation. (The default
// campaign ends hours before the horizon; this matters only for
// configurations with very large Rounds.)
func e20InBurst(at time.Duration) bool {
	step := int(at / e20Period)
	if step >= e20Steps {
		step = e20Steps - 1
	}
	return step%2 == 1
}

// burstLossCampaign runs the scheduled burst-loss campaign of E20.
func (r *Runner) burstLossCampaign() ([]measure.SingleQuerySample, error) {
	loss := r.Cfg.Loss
	if loss == 0 {
		loss = 0.003
	}
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           r.Cfg.Seed + 105,
		ResolverCounts: resolver.ScaledCounts(r.Cfg.Resolvers),
		Loss:           r.Cfg.Loss,
		PathPhases:     e20Phases(loss),
	})
	if err != nil {
		return nil, err
	}
	// Tail quantiles need samples: run at least two rounds regardless
	// of the configured default (the rounds land in different schedule
	// windows, so they also decorrelate burst luck across the grid).
	rounds := r.Cfg.Rounds
	if rounds < 2 {
		rounds = 2
	}
	return measure.RunSingleQuery(measure.SingleQueryConfig{
		Blueprint:     bp,
		Parallelism:   r.Cfg.Parallelism,
		Rounds:        rounds,
		RoundInterval: e20RoundInterval,
		QuerySpacing:  2 * time.Second,
	})
}

// accessWebCampaign runs the per-profile web grid consumed by E21.
func (r *Runner) accessWebCampaign() ([]accessCell[measure.WebSample], error) {
	return accessGrid(r, 110, r.Cfg.WebResolvers, func(bp *resolver.Blueprint) ([]measure.WebSample, error) {
		return measure.RunWeb(measure.WebConfig{
			Blueprint:   bp,
			Parallelism: r.Cfg.Parallelism,
			Protocols:   []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH},
			Pages:       pages.Top10()[:r.Cfg.WebPages],
			Loads:       r.Cfg.WebLoads,
		})
	})
}

// runE19 reports the paper's vantage-diversity observation on the
// access-network axis the simulator can now express: the same resolver
// population measured from behind fiber, cable, 4G, 3G and satellite
// links. Slow uplinks stretch the multi-round-trip encrypted handshakes
// far more than the single-datagram Do53 exchange, and the satellite
// profile's orbit latency dominates everything.
func runE19(r *Runner) (string, error) {
	cells, err := r.access()
	if err != nil {
		return "", err
	}
	header := []string{"profile"}
	for _, p := range dox.Protocols {
		header = append(header, p.String())
	}
	t := &report.Table{
		Title:  "E19 — access-network grid: median handshake | resolve per transport (ms)",
		Header: header,
	}
	for _, cell := range cells {
		row := []string{cell.profile}
		for _, p := range dox.Protocols {
			res := report.Ms(median(cell.samples, p, resolveTime))
			if p == dox.DoUDP {
				row = append(row, "-|"+res)
				continue
			}
			row = append(row, report.Ms(median(cell.samples, p, handshakeTime))+"|"+res)
		}
		t.Add(row...)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("expectation: the encrypted handshake penalty grows as the access link slows (serialization of the TLS\n")
	sb.WriteString("flights) and the satellite profile's ~560ms orbit RTT multiplies every handshake round trip\n")
	return sb.String(), nil
}

// runE20 measures resolve-time tails while the vantage-resolver paths
// alternate between clean windows and Gilbert-Elliott burst-loss
// windows. This is the regime where the paper argues QUIC's loss
// recovery pays off: DoQ's probe timeout (2*srtt+30ms) undercuts the
// TCP transports' RTO (2*srtt+50ms), so in the bursty windows DoQ's
// tail sits below DoT's and DoH's while the medians stay comparable.
func runE20(r *Runner) (string, error) {
	samples, err := r.burstLoss()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title: fmt.Sprintf("E20 — resolve time under Gilbert-Elliott burst loss (60s clean / 60s bursty; bad state: %.0f%% loss, mean burst %.1f datagrams)",
			e20Burst.LossBad*100, 1/e20Burst.PBadGood),
		Header: []string{"protocol", "clean p50", "bursty p50", "bursty p90", "bursty p95", "n(bursty)"},
	}
	// The headline tail is p90: at campaign scale the p95 sample is a
	// single exchange's burst luck on whichever path happens to sit
	// there (path RTTs span 130-760ms), while p90 is stable enough to
	// show the structural recovery-timer difference.
	tail := map[dox.Protocol]float64{}
	for _, p := range dox.Protocols {
		var clean, burst []float64
		for _, s := range samples {
			if !s.OK || s.Protocol != p {
				continue
			}
			if e20InBurst(s.At) {
				burst = append(burst, float64(s.Resolve))
			} else {
				clean = append(clean, float64(s.Resolve))
			}
		}
		bc := stats.NewCDF(burst)
		tail[p] = bc.Quantile(0.90)
		t.Add(p.String(), report.Ms(stats.Median(clean)), report.Ms(bc.Median()),
			report.Ms(bc.Quantile(0.90)), report.Ms(bc.Quantile(0.95)), fmt.Sprint(len(burst)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "bursty p90: DoQ %s ms vs DoT %s ms / DoH %s ms — %s\n",
		report.Ms(tail[dox.DoQ]), report.Ms(tail[dox.DoT]), report.Ms(tail[dox.DoH]),
		map[bool]string{true: "DoQ's loss recovery wins the tail", false: "NO DoQ tail advantage (unexpected)"}[tail[dox.DoQ] < tail[dox.DoT] && tail[dox.DoQ] < tail[dox.DoH]])
	sb.WriteString("paper (§3.1): DoQ keeps resolution times close to Do53 even under adverse paths; TCP-based transports\n")
	sb.WriteString("pay their coarser retransmission timeout in exactly these windows\n")
	return sb.String(), nil
}

// runE21 renders the PLT view of the access grid: per profile, the
// median absolute DoUDP page load time and the relative penalty of DoQ
// and DoH against it (per-combo medians, the Fig. 4 aggregation). On
// fast links the DNS protocol is visible in the totals; on slow links
// content serialization dominates and the relative encrypted penalty
// compresses — except where lossy profiles hit the TCP transports.
func runE21(r *Runner) (string, error) {
	cells, err := r.accessWeb()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E21 — PLT across access profiles: median DoUDP PLT (ms) and relative penalty (DoQ | DoH)",
		Header: []string{"profile", "PLT(DoUDP)", "DoQ", "DoH", "loads OK"},
	}
	for _, cell := range cells {
		var udp []float64
		ok := 0
		for _, s := range cell.samples {
			if !s.OK {
				continue
			}
			ok++
			if s.Protocol == dox.DoUDP {
				udp = append(udp, float64(s.PLT))
			}
		}
		series := relDiff(cell.samples, plt, dox.DoUDP).series
		t.Add(cell.profile,
			report.Ms(stats.Median(udp)),
			stats.FormatPct(stats.Median(series[dox.DoQ])),
			stats.FormatPct(stats.Median(series[dox.DoH])),
			fmt.Sprint(ok))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("expectation: absolute PLT explodes as the downlink shrinks (content serialization through the real\n")
	sb.WriteString("link); the relative encrypted-DNS penalty is largest on fast links and compresses once content dominates\n")
	return sb.String(), nil
}
