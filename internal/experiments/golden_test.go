package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	cfg.Parallelism = 8
	return cfg
}

// TestReportsMatchGolden pins every report byte for byte to
// testdata/golden/<ID>.txt. A change that moves a simulated result
// regenerates the files with -update, and the diff shows which report
// lines moved.
func TestReportsMatchGolden(t *testing.T) {
	cfg := goldenConfig()
	for _, res := range RunAll(NewRunner(cfg), All(), cfg.Parallelism) {
		id := res.Experiment.ID
		if res.Err != nil {
			t.Errorf("%s: %v", id, res.Err)
			continue
		}
		path := filepath.Join("testdata", "golden", id+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(res.Output), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (regenerate with -update)", id, err)
			continue
		}
		if res.Output != string(want) {
			t.Errorf("%s report differs from %s at %s", id, path, firstDiff(string(want), res.Output))
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
