package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dox"
	"repro/internal/dox/racing"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/resolver"
	"repro/internal/stats"
)

// The hostile-network experiments (E25–E27, DESIGN.md §11) measure the
// resilience machinery this repository adds around the paper's
// transports: the happy-eyeballs racing stub across middlebox fault
// policies, QUIC connection migration through a mid-load access flip,
// and multi-upstream failover through a resolver outage.

// runE25 measures the racing fallback stub per middlebox policy: which
// transport wins, what the fallback penalty (race duration) is, and
// what the sticky steady state costs afterwards.
func runE25(r *Runner) (string, error) {
	bp, err := r.blueprint(150, r.Cfg.WebResolvers, func(p *resolver.Profile) {
		// Isolate the fallback dynamics from resolver flakiness.
		p.ResponseRate = 1
	})
	if err != nil {
		return "", err
	}
	samples, err := measure.RunRacing(measure.RacingConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
	})
	if err != nil {
		return "", err
	}
	type cell struct {
		winners map[dox.Protocol]int
		race    *stats.Sketch // first-resolve race time (fallback penalty)
		sticky  *stats.Sketch // steady-state resolve time
		ok, n   int
	}
	cells := map[string]*cell{}
	for _, s := range samples {
		c := cells[s.Policy]
		if c == nil {
			c = &cell{winners: map[dox.Protocol]int{}, race: stats.NewSketch(), sticky: stats.NewSketch()}
			cells[s.Policy] = c
		}
		c.n++
		if !s.OK {
			continue
		}
		c.ok++
		if s.Sticky {
			c.sticky.AddDuration(s.Resolve)
		} else {
			c.winners[s.Winner]++
			c.race.AddDuration(s.RaceTime)
		}
	}
	t := &report.Table{
		Title:  "E25 — racing fallback ladder (DoQ > DoH3 > DoT > DoH > Do53) per middlebox policy",
		Header: []string{"policy", "answered", "winning transport", "race p50 (ms)", "race p95 (ms)", "sticky p50 (ms)"},
	}
	for _, pol := range measure.MiddleboxPolicies() {
		c := cells[pol.Name]
		if c == nil {
			continue
		}
		winner := "-"
		best := 0
		for _, p := range racing.DefaultLadder() {
			if c.winners[p] > best {
				winner, best = p.String(), c.winners[p]
			}
		}
		t.Add(pol.Name,
			fmt.Sprintf("%d/%d", c.ok, c.n),
			fmt.Sprintf("%s (%d/%d races)", winner, best, c.race.N()),
			report.Ms(c.race.Quantile(0.5)),
			report.Ms(c.race.Quantile(0.95)),
			report.Ms(c.sticky.Quantile(0.5)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("expectation: an open path is won by DoQ at the top of the ladder; blocking UDP 853 pushes the win to DoH3,\n")
	sb.WriteString("a full UDP blackhole to DoT (one stagger later), and active rejection costs less than a silent drop because\n")
	sb.WriteString("the refused rungs fail fast instead of burning their attempt budget\n")
	return sb.String(), nil
}

// runE26 measures page loads through a mid-load access flip (wifi to
// 4g): the QUIC upstreams migrate the proxy's session with one path
// validation round trip, the TCP upstreams tear down and pay a resumed
// handshake on the next query.
func runE26(r *Runner) (string, error) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           r.Cfg.Seed + 160,
		ResolverCounts: resolver.ScaledCounts(r.Cfg.WebResolvers),
		Access:         "wifi",
	})
	if err != nil {
		return "", err
	}
	samples, err := measure.RunMigrationWeb(measure.MigrationWebConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
	})
	if err != nil {
		return "", err
	}
	type cell struct {
		plt             *stats.Sketch
		migrated, ok, n int
	}
	cells := map[dox.Protocol]*cell{}
	for _, s := range samples {
		c := cells[s.Protocol]
		if c == nil {
			c = &cell{plt: stats.NewSketch()}
			cells[s.Protocol] = c
		}
		c.n++
		if s.Migrated {
			c.migrated++
		}
		if s.OK {
			c.ok++
			c.plt.AddDuration(s.PLT)
		}
	}
	t := &report.Table{
		Title:  "E26 — PLT with a mid-load wifi-to-4g flip: QUIC migration vs TCP reconnect",
		Header: []string{"protocol", "loads", "sessions migrated", "PLT p50 (ms)", "PLT p95 (ms)"},
	}
	order := []dox.Protocol{dox.DoQ, dox.DoH3, dox.DoT, dox.DoH}
	for _, p := range order {
		c := cells[p]
		if c == nil {
			continue
		}
		t.Add(p.String(),
			fmt.Sprintf("%d/%d", c.ok, c.n),
			fmt.Sprintf("%d/%d", c.migrated, c.n),
			report.Ms(c.plt.Quantile(0.5)),
			report.Ms(c.plt.Quantile(0.95)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	if q, tcp := cells[dox.DoQ], cells[dox.DoT]; q != nil && tcp != nil && q.plt.N() > 0 && tcp.plt.N() > 0 {
		fmt.Fprintf(&sb, "median PLT, DoQ (migrates) vs DoT (reconnects): %s vs %s ms\n",
			report.Ms(q.plt.Quantile(0.5)), report.Ms(tcp.plt.Quantile(0.5)))
	}
	sb.WriteString("expectation: DoQ and DoH3 carry their upstream session across the flip (one PATH_CHALLENGE round trip),\n")
	sb.WriteString("while DoT and DoH reconnect — so post-flip DNS lookups on the TCP transports pay a fresh handshake\n")
	sb.WriteString("on the slower access network and their PLT tail stretches\n")
	return sb.String(), nil
}

// runE27 measures availability and latency of a steady query stream
// through a 15-second primary-resolver outage, pinned to the primary vs
// backed by the failover health tracker.
func runE27(r *Runner) (string, error) {
	bp, err := r.blueprint(170, r.Cfg.WebResolvers, func(p *resolver.Profile) {
		p.ResponseRate = 1
	})
	if err != nil {
		return "", err
	}
	samples, err := measure.RunFailoverCampaign(measure.FailoverCampaignConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
	})
	if err != nil {
		return "", err
	}
	type cell struct {
		resolve            *stats.Sketch
		winOK, winN, ok, n int
		switched           int // window queries served by a non-primary upstream
	}
	cells := map[string]*cell{}
	for _, s := range samples {
		c := cells[s.Arm]
		if c == nil {
			c = &cell{resolve: stats.NewSketch()}
			cells[s.Arm] = c
		}
		c.n++
		if s.OK {
			c.ok++
			c.resolve.AddDuration(s.Resolve)
		}
		if s.At >= measure.FailoverOutageStart && s.At < measure.FailoverOutageEnd {
			c.winN++
			if s.OK {
				c.winOK++
				if s.Upstream != 0 {
					c.switched++
				}
			}
		}
	}
	t := &report.Table{
		Title: fmt.Sprintf("E27 — resolver failover through a primary outage [%s, %s) (eject after %d consecutive timeouts)",
			measure.FailoverOutageStart, measure.FailoverOutageEnd, racing.DefaultEjectAfter),
		Header: []string{"arm", "availability in outage", "served by backup", "answered overall", "resolve p50 (ms)", "resolve p95 (ms)"},
	}
	for _, arm := range []string{"pinned", "failover"} {
		c := cells[arm]
		if c == nil {
			continue
		}
		avail := 0.0
		if c.winN > 0 {
			avail = float64(c.winOK) / float64(c.winN)
		}
		t.Add(arm,
			fmt.Sprintf("%s (%d/%d)", stats.FormatPct(avail), c.winOK, c.winN),
			fmt.Sprintf("%d", c.switched),
			fmt.Sprintf("%d/%d", c.ok, c.n),
			report.Ms(c.resolve.Quantile(0.5)),
			report.Ms(c.resolve.Quantile(0.95)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("expectation: the pinned arm loses the whole outage window to timeouts; the failover arm pays the ejection\n")
	sb.WriteString("threshold (a few consecutive timeouts), then serves from a backup upstream until the jittered cooldown\n")
	sb.WriteString("readmits the primary after recovery\n")
	return sb.String(), nil
}
