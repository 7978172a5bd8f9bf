// Command experiments regenerates every table and figure of the paper,
// plus the DoH3 sixth-transport artifacts E13–E15, the caching /
// Zipf-workload artifacts E16–E18, the dynamic-link-model artifacts
// E19–E21 (access-network grids and Gilbert–Elliott burst loss), the
// proxy serving-semantics artifacts E22–E24 (coalescing, serve-stale,
// prefetch), and the hostile-network artifacts E25–E27 (racing,
// migration, failover; see DESIGN.md §4 for the experiment index). By
// default it runs all twenty-seven experiments at a fast,
// shape-preserving scale; -full uses the paper's population sizes.
// -id runs a comma-separated subset in the order given: the §2 scan
// funnel is E1 (E1,E2 adds Fig. 1), Table 1 and Fig. 2 are E3–E6, and
// Fig. 3 and Fig. 4 are E7–E9.
//
// Campaigns execute as sharded parallel campaigns: -parallel N sizes the
// worker pool (default GOMAXPROCS). Parallelism scales wall time only —
// for a fixed seed, stdout is byte-identical at -parallel 1 and
// -parallel 8 (timings go to stderr).
//
// Usage:
//
//	experiments [-full] [-id E4[,E5...]] [-seed N] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "paper-scale campaigns (slow)")
	id := flag.String("id", "", "run these experiments, comma-separated, in order (e.g. E4 or E5,E4)")
	seed := flag.Int64("seed", 0, "override the campaign seed")
	parallel := flag.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS; affects speed, never results)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-14s %s\n", e.ID, e.Artifact, e.About)
		}
		return
	}

	run, err := selectIDs(*id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (try -list)\n", err)
		os.Exit(1)
	}
	cfg := experiments.Default()
	if *full {
		cfg = experiments.Full()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallelism = *parallel
	if *parallel > 0 {
		// -parallel N is a CPU budget. RunAll nests campaign worker
		// pools inside concurrently running experiments (goroutines, so
		// oversubscription is cheap), and capping GOMAXPROCS is what
		// bounds actual simultaneous execution at N.
		runtime.GOMAXPROCS(*parallel)
	}
	runner := experiments.NewRunner(cfg)

	start := time.Now()
	failed := 0
	// Reports stream in input order as they complete, so long -full runs
	// show progress; stdout stays byte-stable at any parallelism.
	results := experiments.RunAllFunc(runner, run, cfg.Parallelism, func(res experiments.Result) {
		e := res.Experiment
		if res.Err != nil {
			// Keep printing the experiments that succeed; their
			// campaigns already ran.
			failed++
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, res.Err)
			return
		}
		fmt.Printf("=== %s — %s (%s)\n%s\n", e.ID, e.Artifact, e.About, res.Output)
	})
	fmt.Fprintf(os.Stderr, "%d experiments in %.1fs\n", len(results), time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// selectIDs resolves the -id list: every experiment for "", otherwise
// each comma-separated, space-trimmed ID in the order given.
func selectIDs(list string) ([]experiments.Experiment, error) {
	if list == "" {
		return experiments.All(), nil
	}
	var run []experiments.Experiment
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		run = append(run, e)
	}
	return run, nil
}
