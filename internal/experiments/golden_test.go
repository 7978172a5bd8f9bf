package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current reports")

// goldenConfig is the repository benchmark's suite shape (bench/
// workloads.go) at the default seed 2022, so the golden reports,
// concatenated in registry order, hash to bench/golden/suite.2022.sha256.
func goldenConfig() Config {
	cfg := Default()
	cfg.Resolvers = 16
	cfg.WebResolvers = 1
	cfg.WebLoads = 1
	cfg.WebPages = 2
	cfg.CacheQueries = 40
	cfg.CacheNames = 60
	cfg.ScanScale = 32
	return cfg
}

// suiteRun is one run of every experiment through RunAllFunc on a fresh
// Runner whose campaigns use the run's parallelism.
type suiteRun struct {
	par     int
	runner  *Runner
	results []Result
	emitted []string
}

// suiteRuns runs the whole suite once per package test binary, at
// parallelism 1 and 8, and shares both runs among the four tests below,
// so a tier-1 pass runs the suite twice however many properties it
// checks. (With -count=N the later counts reuse the first runs.)
var suiteRuns = sync.OnceValue(func() []suiteRun {
	var runs []suiteRun
	for _, par := range []int{1, 8} {
		cfg := goldenConfig()
		cfg.Parallelism = par
		run := suiteRun{par: par, runner: NewRunner(cfg)}
		run.results = RunAllFunc(run.runner, All(), par, func(res Result) {
			run.emitted = append(run.emitted, res.Experiment.ID)
		})
		runs = append(runs, run)
	}
	return runs
})

// suite returns the shared runs, failing the test if a run did not
// return one result per experiment.
func suite(t *testing.T) []suiteRun {
	t.Helper()
	runs := suiteRuns()
	for _, run := range runs {
		if len(run.results) != len(All()) {
			t.Fatalf("parallelism %d: %d results for %d experiments", run.par, len(run.results), len(All()))
		}
	}
	return runs
}

// TestReportsMatchGolden pins every report of both suite runs byte for
// byte to testdata/golden/<ID>.txt: a report that depends on
// parallelism fails against the file. A change that moves a simulated
// result regenerates the files with -update from the parallelism-8 run
// (the parallelism-1 run must still equal it), and the diff shows which
// report lines moved.
func TestReportsMatchGolden(t *testing.T) {
	runs := suite(t)
	for i, e := range All() {
		path := filepath.Join("testdata", "golden", e.ID+".txt")
		var want string
		if *update {
			want = runs[len(runs)-1].results[i].Output
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %v (regenerate with -update)", e.ID, err)
				continue
			}
			want = string(b)
		}
		for _, run := range runs {
			if got := run.results[i].Output; got != want {
				t.Errorf("%s report at parallelism %d differs from %s at %s", e.ID, run.par, path, firstDiff(want, got))
			}
		}
	}
}

// TestAllExperimentsProduceReports checks that every experiment returns
// a report of at least 40 bytes without error at both parallelisms.
func TestAllExperimentsProduceReports(t *testing.T) {
	for _, run := range suite(t) {
		for i, e := range All() {
			res := run.results[i]
			if res.Err != nil {
				t.Errorf("parallelism %d: %s: %v", run.par, e.ID, res.Err)
			} else if len(res.Output) < 40 {
				t.Errorf("parallelism %d: %s: suspiciously short report:\n%s", run.par, e.ID, res.Output)
			}
		}
	}
}

// TestReportsDeterministicAcrossParallelism checks that every experiment
// E1-E27 emits a byte-identical report at parallelism 1 and 8 for the
// same seed. Each parallelism has its own Runner, so campaign caches
// cannot mask a divergence.
func TestReportsDeterministicAcrossParallelism(t *testing.T) {
	runs := suite(t)
	base := runs[0]
	for _, run := range runs[1:] {
		for i, e := range All() {
			if a, b := base.results[i].Output, run.results[i].Output; a != b {
				t.Errorf("%s report differs between parallelism %d and %d at %s", e.ID, base.par, run.par, firstDiff(a, b))
			}
		}
	}
}

// TestRunAllOrderAndCaching checks that RunAllFunc returns and emits
// results in input order and that the single-query campaign is still
// cached after the concurrent run.
func TestRunAllOrderAndCaching(t *testing.T) {
	for _, run := range suite(t) {
		if len(run.emitted) != len(All()) {
			t.Fatalf("parallelism %d: %d emits for %d experiments", run.par, len(run.emitted), len(All()))
		}
		for i, e := range All() {
			if got := run.results[i].Experiment.ID; got != e.ID {
				t.Fatalf("parallelism %d: result %d is %s, want %s", run.par, i, got, e.ID)
			}
			if run.emitted[i] != e.ID {
				t.Fatalf("parallelism %d: emit %d was %s, want input order %s", run.par, i, run.emitted[i], e.ID)
			}
		}
		a, err := run.runner.singleQuery()
		if err != nil {
			t.Fatal(err)
		}
		b, err := run.runner.singleQuery()
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || &a[0] != &b[0] {
			t.Errorf("parallelism %d: single-query campaign was not cached across RunAllFunc", run.par)
		}
	}
}

// firstDiff describes the first line at which got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of report>"
	}
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, line(w, i), line(g, i))
}
