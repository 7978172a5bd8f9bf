package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// goldenSeeds are the seeds with committed digests: 2022 is the repo's
// default, 31337 the held-out seed later claims must also hold on.
var goldenSeeds = []int64{2022, 31337}

// config is what every mode shares.
type config struct {
	dir     string // the benchmark's own directory
	seed    int64
	seconds float64
	smoke   bool
}

// parallelism of the parallel mode: never more running threads than
// processors, and no more than the campaigns can use.
func parallelP() int { return max(1, min(runtime.NumCPU(), 4)) }

// stat is a metric's reading: the median of its samples with their
// range when it was repeated within the run, the bare value when not.
type stat struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func statOf(xs []float64) stat {
	s := stat{Value: median(xs), Min: xs[0], Max: xs[0], Samples: xs}
	for _, x := range xs {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	}
	return s
}

func single(x float64) stat { return stat{Value: x} }

// result is one workload's measurement: metric name to statistic, plus
// what the correctness check needs.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Attempted int    `json:"attempted"`
	Digest    string `json:"digest"`
	Golden    string `json:"golden"` // "match", "mismatch" or "n/a"
	// FailShare is the share of simulated operations that failed
	// (unanswered, blackholed, timed out). It repeats exactly for a seed.
	FailShare float64         `json:"fail_share"`
	Metrics   map[string]stat `json:"metrics"`
}

func (c config) goldenPath(workload string) string {
	return filepath.Join(c.dir, "golden", fmt.Sprintf("%s.%d.sha256", workload, c.seed))
}

// checkGolden compares a digest with the committed one for this seed.
// Smoke sizes and seeds without a golden file are not applicable.
func (c config) checkGolden(workload, digest string) (string, error) {
	if c.smoke {
		return "n/a", nil
	}
	want, err := os.ReadFile(c.goldenPath(workload))
	if errors.Is(err, os.ErrNotExist) {
		return "n/a", nil
	}
	if err != nil {
		return "", err
	}
	if strings.TrimSpace(string(want)) != digest {
		return "mismatch", nil
	}
	return "match", nil
}

// check is the correctness gate of a run: one digest across all passes,
// compared with the committed one where the seed has it.
func (c config) check(workload string, groups ...[]pass) (digest, golden string, err error) {
	if digest, err = oneDigest(workload, groups...); err != nil {
		return "", "", err
	}
	golden, err = c.checkGolden(workload, digest)
	return digest, golden, err
}

// oneDigest returns the digest all passes share; simulated results that
// differ between repetitions or parallelism levels are a hard failure.
func oneDigest(workload string, groups ...[]pass) (string, error) {
	digest := ""
	for _, passes := range groups {
		for _, p := range passes {
			if digest == "" {
				digest = p.Digest
			}
			if p.Digest != digest {
				return "", fmt.Errorf("%s: simulated results differ between passes: %s vs %s", workload, digest, p.Digest)
			}
		}
	}
	return digest, nil
}

func passWalls(passes []pass) []float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = p.Wall.Seconds()
	}
	return xs
}

// opsPerSecond is the workload's fixed op count over each pass's wall
// time; the statistic's value is the rate at the median pass.
func opsPerSecond(passes []pass) stat {
	xs := passWalls(passes)
	for i := range xs {
		xs[i] = float64(passes[i].Ops) / xs[i]
	}
	return statOf(xs)
}

func totals(passes []pass) (ops, failed int, mallocs, bytes uint64) {
	for _, p := range passes {
		ops += p.Ops
		failed += p.Failed
		mallocs += p.Mallocs
		bytes += p.Bytes
	}
	return
}

// setupRepeats is how many fresh processes a run starts for the set-up
// median. One costs a few milliseconds.
const setupRepeats = 15

// setupTimes samples the set-up time: a child that builds the
// workload's inputs and exits, timed from exec to exit, so that process
// start, package initialisation and the set-up itself all count.
func (c config) setupTimes(w workload) ([]float64, error) {
	times := make([]float64, setupRepeats)
	for i := range times {
		rep, err := spawn(job{Workload: w.name, Seed: c.seed, Smoke: c.smoke, Parallelism: 1, SetupOnly: true})
		if err != nil {
			return nil, err
		}
		times[i] = rep.WallS
	}
	return times, nil
}

// endToEndRun measures one workload with tracing off: set-up children,
// then a serial child (GOMAXPROCS=1, Parallelism=1) and a parallel child
// sharing the window.
func (c config) endToEndRun(w workload) (*result, error) {
	setup, err := c.setupTimes(w)
	if err != nil {
		return nil, err
	}
	serial, err := spawn(job{Workload: w.name, Seed: c.seed, Smoke: c.smoke,
		Parallelism: 1, Seconds: c.seconds * 0.55, MinPasses: 3})
	if err != nil {
		return nil, err
	}
	par, err := spawn(job{Workload: w.name, Seed: c.seed, Smoke: c.smoke,
		Parallelism: parallelP(), Seconds: c.seconds * 0.45, MinPasses: 3})
	if err != nil {
		return nil, err
	}
	return c.endToEndResult(w, setup, serial, par)
}

// endToEndResult checks the two children's simulated results and turns
// their reports into the end-to-end metrics.
func (c config) endToEndResult(w workload, setup []float64, serial, par *report) (*result, error) {
	digest, golden, err := c.check(w.name, serial.Passes, par.Passes)
	if err != nil {
		return nil, err
	}
	ops, failed, mallocs, bytes := totals(serial.Passes)
	parOps, _, _, _ := totals(par.Passes)
	return &result{
		Workload: w.name, Seed: c.seed, Attempted: ops + parOps, Digest: digest, Golden: golden,
		FailShare: float64(failed) / float64(ops),
		Metrics: map[string]stat{
			"setup_s":       statOf(setup),
			"ops_per_s":     opsPerSecond(serial.Passes),
			"ops_per_s_par": opsPerSecond(par.Passes),
			"allocs_per_op": single(float64(mallocs) / float64(ops)),
			"bytes_per_op":  single(float64(bytes) / float64(ops)),
			"peak_rss_mb":   single(serial.PeakRSSMB),
		},
	}, nil
}

// layers is a traced run's output: the per-layer metrics and the spans
// behind them.
type layers struct {
	result
	Spans []span `json:"spans,omitempty"`
}

// layersRun makes the traced run of one workload (part A) and, unless
// probes are handed in from an earlier run, the probe circuit (part B).
// Nothing measured here feeds an end-to-end number.
func (c config) layersRun(w workload, probes *report) (*layers, *report, error) {
	serial, err := spawn(job{Workload: w.name, Seed: c.seed, Smoke: c.smoke,
		Parallelism: 1, Seconds: c.seconds * 0.25, MinPasses: 2, Traced: true})
	if err != nil {
		return nil, nil, err
	}
	par, err := spawn(job{Workload: w.name, Seed: c.seed, Smoke: c.smoke,
		Parallelism: parallelP(), Seconds: c.seconds * 0.2, MinPasses: 2})
	if err != nil {
		return nil, nil, err
	}
	if probes == nil {
		if probes, err = spawn(job{Probes: true, Smoke: c.smoke, Parallelism: 1}); err != nil {
			return nil, nil, err
		}
	}
	l, err := c.layersResult(w, serial, par, probes)
	return l, probes, err
}

// layersResult turns the traced run's reports into the per-layer
// metrics.
func (c config) layersResult(w workload, serial, par, probes *report) (*layers, error) {
	digest, golden, err := c.check(w.name, serial.Passes, serial.TracedPasses, par.Passes)
	if err != nil {
		return nil, err
	}
	ops, failed, _, _ := totals(serial.Passes)
	tracedOps, _, _, _ := totals(serial.TracedPasses)
	parOps, _, _, _ := totals(par.Passes)
	first := serial.Passes[0]
	m := map[string]stat{}
	for _, b := range cpuBuckets {
		m["cpu_share."+b] = single(serial.CPUShare[b])
	}
	leases := float64(serial.PoolHits + serial.PoolMisses)
	m["gc.cpu_share"] = single(serial.GCCPUShare)
	m["gc.cycles"] = single(float64(serial.GCCycles) / float64(len(serial.Passes)))
	m["bytepool.miss_share"] = single(ratio(float64(serial.PoolMisses), leases))
	m["bytepool.leases_per_op"] = single(leases / float64(ops))
	m["cache.hit_share"] = single(ratio(float64(first.CacheHits), float64(first.CacheLookups)))
	m["campaign.par_speedup"] = single(opsPerSecond(par.Passes).Value / opsPerSecond(serial.Passes).Value)
	m["campaign.shards"] = single(float64(first.Shards))
	m["campaign.fail_share"] = single(float64(failed) / float64(ops))
	m["trace.overhead_share"] = single(median(passWalls(serial.TracedPasses))/median(passWalls(serial.Passes)) - 1)
	for _, p := range probes.Probes {
		m[p.Name+".ns"] = single(p.Ns)
		m[p.Name+".allocs"] = single(p.Allocs)
	}
	return &layers{
		result: result{Workload: w.name, Seed: c.seed, Attempted: ops + tracedOps + parOps,
			Digest: digest, Golden: golden, FailShare: float64(failed) / float64(ops), Metrics: m},
		Spans: append(serial.Spans, probes.Spans...),
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// updateGolden rewrites the committed digests: one serial in-process
// pass per workload and golden seed, at the committed size.
func (c config) updateGolden() error {
	if err := os.MkdirAll(filepath.Join(c.dir, "golden"), 0o755); err != nil {
		return err
	}
	for _, seed := range goldenSeeds {
		c.seed = seed
		for _, w := range workloads {
			run, err := w.setup(seed, benchSizes)
			if err != nil {
				return err
			}
			p, err := run(1, nil, 0)
			if err != nil {
				return err
			}
			if err := os.WriteFile(c.goldenPath(w.name), []byte(p.Digest+"\n"), 0o644); err != nil {
				return err
			}
			fmt.Printf("%s  %s seed %d\n", p.Digest, w.name, seed)
		}
	}
	return nil
}
