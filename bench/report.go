package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// benchFile is a recorded measurement of every workload: what
// `-out` writes and `-compare`, `-render` read.
type benchFile struct {
	Go         string   `json:"go"`
	NumCPU     int      `json:"num_cpu"`
	Parallel   int      `json:"parallel"`
	Seed       int64    `json:"seed"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []result `json:"end_to_end"`
	PerLayer   []result `json:"per_layer,omitempty"`
}

func (c config) newBenchFile() *benchFile {
	return &benchFile{Go: runtime.Version(), NumCPU: runtime.NumCPU(), Parallel: parallelP(),
		Seed: c.seed, RunSeconds: c.seconds}
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &benchFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (f *benchFile) endToEndOf(workload string) *result {
	for i := range f.EndToEnd {
		if f.EndToEnd[i].Workload == workload {
			return &f.EndToEnd[i]
		}
	}
	return nil
}

// digestMatch renders the golden check as the issue's 0/1 metric.
func digestMatch(golden string) string {
	switch golden {
	case "match":
		return "1"
	case "mismatch":
		return "0"
	}
	return "n/a"
}

// printEndToEnd prints the issue's eight end-to-end metrics of one
// workload by name, with units: the six BENCHMARK.json carries with a
// bound, and the two exact ones.
func printEndToEnd(w io.Writer, r *result) {
	fmt.Fprintf(w, "workload %s  seed %d  attempted %d  digest %s\n", r.Workload, r.Seed, r.Attempted, r.Digest[:16])
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, d := range endToEnd {
		s := r.Metrics[d.Name]
		spread := "[one reading]"
		if len(s.Samples) > 0 {
			spread = fmt.Sprintf("[median of %d, min %.6g max %.6g]", len(s.Samples), s.Min, s.Max)
		}
		fmt.Fprintf(tw, "  %s\t%.6g %s\t%s\tbound %.0f%%\n", d.Name, s.Value, d.Unit, spread, d.Bound*100)
	}
	fmt.Fprintf(tw, "  fail_share\t%.6g ratio\t[simulated, repeats exactly]\texact\n", r.FailShare)
	fmt.Fprintf(tw, "  digest_match\t%s 0/1\t[%s]\texact\n", digestMatch(r.Golden), r.Golden)
	tw.Flush()
}

func printLayers(w io.Writer, r *result) {
	fmt.Fprintf(w, "workload %s  seed %d  per-layer (traced run)\n", r.Workload, r.Seed)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, d := range perLayer() {
		fmt.Fprintf(tw, "  %s\t%.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	tw.Flush()
}

// comparison is one (workload, metric) pair of two measurements.
type comparison struct {
	workload  string
	def       metricDef
	base, cur float64
}

func (c comparison) beyondBound() bool { return c.def.worsening(c.base, c.cur) > c.def.Bound }

func compareFiles(base, cur *benchFile) []comparison {
	var out []comparison
	for _, b := range base.EndToEnd {
		n := cur.endToEndOf(b.Workload)
		if n == nil {
			continue
		}
		for _, d := range endToEnd {
			out = append(out, comparison{b.Workload, d, b.Metrics[d.Name].Value, n.Metrics[d.Name].Value})
		}
	}
	return out
}

// printComparison prints, per workload, one row per version and the
// ratio of each metric to its base, then every pair's worsening next to
// its bound. It reports whether any pair is beyond its bound.
func printComparison(w io.Writer, baseName, curName string, base, cur *benchFile) bool {
	cols := []string{"ops_per_s", "ops_per_s_par", "allocs_per_op", "bytes_per_op", "peak_rss_mb"}
	for _, b := range base.EndToEnd {
		n := cur.endToEndOf(b.Workload)
		if n == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", b.Workload)
		tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "version\tops/s\tops/s par\tallocs/op\tB/op\tpeak RSS MB\t\n")
		for _, row := range []struct {
			name string
			r    *result
		}{{baseName, &b}, {curName, n}} {
			fmt.Fprintf(tw, "%s\t", row.name)
			for _, c := range cols {
				fmt.Fprintf(tw, "%s\t", num(row.r.Metrics[c].Value))
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprintf(tw, "%s / %s\t", curName, baseName)
		for _, c := range cols {
			fmt.Fprintf(tw, "%.3fx\t", ratio(n.Metrics[c].Value, b.Metrics[c].Value))
		}
		fmt.Fprintln(tw)
		tw.Flush()
		if b.Digest != n.Digest {
			fmt.Fprintf(w, "  simulated results differ: digest %s vs %s\n", b.Digest[:16], n.Digest[:16])
		}
	}
	fmt.Fprintln(w)
	return printWorsening(w, compareFiles(base, cur))
}

// printWorsening lists every pair's observed worsening beside its bound
// and reports whether all stay within.
func printWorsening(w io.Writer, pairs []comparison) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase\tnew\tworse by\tbound\t\n")
	for _, p := range pairs {
		verdict := ""
		if p.beyondBound() {
			verdict, ok = "REGRESSION", false
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", p.workload, p.def.Name,
			p.base, p.cur, p.def.worsening(p.base, p.cur)*100, p.def.Bound*100, verdict)
	}
	tw.Flush()
	return ok
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bounds
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measuring window the driver passes as --seconds.
const runSeconds = 16

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	return m
}

const (
	tableBegin = "<!-- results:begin (generated by -render; do not edit) -->"
	tableEnd   = "<!-- results:end -->"
)

// num renders a reading without exponent notation.
func num(x float64) string {
	if x >= 1e5 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.5g", x)
}

// resultsTable renders the baseline as the README's markdown tables.
func resultsTable(f *benchFile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s, %d CPUs, parallel mode P=%d, seed %d, `--seconds %g`.\n\n",
		f.Go, f.NumCPU, f.Parallel, f.Seed, f.RunSeconds)
	sb.WriteString("| workload | ops/run | setup_s | ops_per_s | ops_per_s_par | allocs_per_op | bytes_per_op | peak_rss_mb | fail_share | digest_match |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range f.EndToEnd {
		fmt.Fprintf(&sb, "| `%s` | %d |", r.Workload, r.Attempted)
		for _, d := range endToEnd {
			fmt.Fprintf(&sb, " %s |", num(r.Metrics[d.Name].Value))
		}
		fmt.Fprintf(&sb, " %.4g | %s |\n", r.FailShare, digestMatch(r.Golden))
	}
	if len(f.PerLayer) == 0 {
		return sb.String()
	}
	sb.WriteString("\nWorkload attribution (traced run, serial):\n\n| metric |")
	for _, r := range f.PerLayer {
		fmt.Fprintf(&sb, " `%s` |", r.Workload)
	}
	sb.WriteString("\n|---|" + strings.Repeat("---|", len(f.PerLayer)) + "\n")
	probeRows := false
	for _, d := range perLayer() {
		if strings.HasSuffix(d.Name, ".ns") || strings.HasSuffix(d.Name, ".allocs") {
			probeRows = true
			continue
		}
		fmt.Fprintf(&sb, "| `%s` |", d.Name)
		for _, r := range f.PerLayer {
			fmt.Fprintf(&sb, " %.4g |", r.Metrics[d.Name].Value)
		}
		sb.WriteString("\n")
	}
	if probeRows {
		sb.WriteString("\nProbe circuit (serial, one run):\n\n| probe | ns/op | allocs/op |\n|---|---|---|\n")
		first := f.PerLayer[0]
		for _, p := range probes {
			fmt.Fprintf(&sb, "| `%s` | %s | %.2f |\n", p.name,
				num(first.Metrics[p.name+".ns"].Value), first.Metrics[p.name+".allocs"].Value)
		}
	}
	return sb.String()
}

// render rewrites BENCHMARK.json from the Go tables and the results
// section of the README from the recorded baseline.
func (c config) render(root string) error {
	if err := writeJSON(filepath.Join(root, "BENCHMARK.json"), buildManifest()); err != nil {
		return err
	}
	base, err := readBenchFile(filepath.Join(c.dir, "baseline.json"))
	if err != nil {
		return err
	}
	readme := filepath.Join(c.dir, "README.md")
	data, err := os.ReadFile(readme)
	if err != nil {
		return err
	}
	text := string(data)
	i, j := strings.Index(text, tableBegin), strings.Index(text, tableEnd)
	if i < 0 || j < i {
		return fmt.Errorf("%s: results markers not found", readme)
	}
	text = text[:i+len(tableBegin)] + "\n" + resultsTable(base) + text[j:]
	return os.WriteFile(readme, []byte(text), 0o644)
}
