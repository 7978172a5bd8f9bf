// Command bench is the repository's benchmark: five seeded, closed-loop
// campaign workloads measured end to end (host time, allocations and
// memory per simulated operation), a correctness gate on the simulated
// results, and a separate traced run that attributes the cost to layers.
// See README.md in this directory.
//
// The contract entry point is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object as the last line of standard output.
// Without --workload the program measures every workload and prints the
// whole report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		c            config
		workloadName = flag.String("workload", "", "measure one workload and print the contract's JSON line")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans and counters to this file")
		out          = flag.String("out", "", "write the full report to this file as JSON")
		selfcheck    = flag.Bool("selfcheck", false, "measure the end-to-end set twice on this build and require agreement within the bounds")
		compare      = flag.Bool("compare", false, "compare two recorded reports: -compare old.json new.json")
		render       = flag.Bool("render", false, "regenerate BENCHMARK.json and the results table in README.md")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden/<workload>.<seed>.sha256")
		child        = flag.String("child", "", "internal: run one job and print its report")
	)
	flag.StringVar(&c.dir, "dir", "bench", "the benchmark's directory, relative to the working directory")
	flag.Int64Var(&c.seed, "seed", goldenSeeds[0], "workload seed")
	flag.Float64Var(&c.seconds, "seconds", runSeconds, "measuring window per workload")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny sizes: every workload and probe runs once, numbers mean nothing")
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child)
	case *compare:
		err = compareMain(flag.Args())
	case *render:
		err = c.render(".")
	case *updateGolden:
		err = c.updateGolden()
	case *selfcheck:
		err = c.selfcheck()
	case *workloadName != "":
		err = c.contractRun(*workloadName, *trace == 1, *traceOut)
	default:
		err = c.fullReport(*out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// contractRun measures one workload and prints the contract's line:
// every end-to-end metric, or with trace every per-layer metric.
func (c config) contractRun(name string, trace bool, traceOut string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var r *result
	defs := endToEnd
	if trace {
		l, _, err := c.layersRun(w, nil)
		if err != nil {
			return err
		}
		if traceOut != "" {
			if err := writeJSON(traceOut, l); err != nil {
				return err
			}
		}
		r, defs = &l.result, perLayer()
		printLayers(os.Stderr, r)
	} else {
		var err error
		if r, err = c.endToEndRun(w); err != nil {
			return err
		}
		printEndToEnd(os.Stderr, r)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		// Passes that disagree never get this far; what is left to
		// check is the committed digest, where the seed has one.
		Correct:   r.Golden != "mismatch",
		Attempted: r.Attempted,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		line.Metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// fullReport measures every workload end to end, then makes the traced
// runs (the probe circuit once), and prints everything by name.
func (c config) fullReport(out, traceOut string) error {
	f, err := c.endToEndSet(os.Stdout)
	if err != nil {
		return err
	}
	var probes *report
	var traces []*layers
	for _, w := range workloads {
		l, p, err := c.layersRun(w, probes)
		if err != nil {
			return err
		}
		probes = p
		printLayers(os.Stdout, &l.result)
		f.PerLayer = append(f.PerLayer, l.result)
		traces = append(traces, l)
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, traces); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeJSON(out, f); err != nil {
			return err
		}
	}
	for _, r := range f.EndToEnd {
		if r.Golden == "mismatch" {
			return errors.New("simulated results differ from the committed digests")
		}
	}
	return nil
}

// endToEndSet measures every workload end to end, printing each as it
// completes.
func (c config) endToEndSet(log io.Writer) (*benchFile, error) {
	f := c.newBenchFile()
	for _, w := range workloads {
		r, err := c.endToEndRun(w)
		if err != nil {
			return nil, err
		}
		printEndToEnd(log, r)
		f.EndToEnd = append(f.EndToEnd, *r)
	}
	return f, nil
}

// selfcheck is the A/A test: the same build measured twice must agree
// within every bound.
func (c config) selfcheck() error {
	var sets [2]*benchFile
	for i := range sets {
		fmt.Fprintf(os.Stderr, "set %d\n", i+1)
		var err error
		if sets[i], err = c.endToEndSet(os.Stderr); err != nil {
			return err
		}
	}
	if !printWorsening(os.Stdout, compareFiles(sets[0], sets[1])) {
		return errors.New("selfcheck: two runs of one build disagree beyond a bound")
	}
	fmt.Println("selfcheck: every (metric, workload) pair agrees within its bound")
	return nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare old.json new.json")
	}
	base, err := readBenchFile(args[0])
	if err != nil {
		return err
	}
	cur, err := readBenchFile(args[1])
	if err != nil {
		return err
	}
	if !printComparison(os.Stdout, args[0], args[1], base, cur) {
		return errors.New("compare: regression beyond a bound")
	}
	return nil
}
