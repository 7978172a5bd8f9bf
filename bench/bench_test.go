package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

func smokeConfig() config { return config{dir: ".", seed: goldenSeeds[0], smoke: true} }

func smokeJob(w workload, parallelism int, traced bool) job {
	return job{Workload: w.name, Seed: goldenSeeds[0], Smoke: true,
		Parallelism: parallelism, MinPasses: 1, Traced: traced}
}

func mustRun(t *testing.T, j job) *report {
	t.Helper()
	rep, err := runJob(j)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func metricNames(m map[string]stat) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	slices.Sort(names)
	return names
}

// TestManifest checks BENCHMARK.json against the Go tables it is
// rendered from and against the contract's limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go/workloads.go; run `bash bench/run.sh -render`")
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range got.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, d := range got.PerLayer {
		check(d.Name, d.Unit)
	}
}

// TestSmokeWorkloads runs every workload once at Parallelism 1 and 2:
// the digests must agree, and the metrics the program emits must be
// exactly the ones BENCHMARK.json lists.
func TestSmokeWorkloads(t *testing.T) {
	probes := mustRun(t, job{Probes: true, Smoke: true, Parallelism: 1})
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := smokeConfig()
			serial := mustRun(t, smokeJob(w, 1, true))
			par := mustRun(t, smokeJob(w, 2, false))
			if serial.Passes[0].Digest != par.Passes[0].Digest {
				t.Fatalf("digest at Parallelism 1 %s, at 2 %s", serial.Passes[0].Digest, par.Passes[0].Digest)
			}
			if serial.Passes[0].Ops == 0 {
				t.Fatal("no ops")
			}
			e2e, err := c.endToEndResult(w, []float64{0.003}, serial, par)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metricNames(e2e.Metrics), defNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, want %v", got, want)
			}
			l, err := c.layersResult(w, serial, par, probes)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metricNames(l.Metrics), defNames(perLayer()); !slices.Equal(got, want) {
				t.Errorf("per-layer metrics %v, want %v", got, want)
			}
			var share float64
			for _, b := range cpuBuckets {
				share += l.Metrics["cpu_share."+b].Value
			}
			if share < 0.999 || share > 1.001 {
				t.Errorf("cpu shares sum to %v", share)
			}
			if len(l.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestPassesMustAgree pins the hard failure: simulated results that
// differ between passes are an error, never a metric.
func TestPassesMustAgree(t *testing.T) {
	if _, err := oneDigest("w", []pass{{Digest: "a"}}, []pass{{Digest: "a"}}); err != nil {
		t.Errorf("equal digests: %v", err)
	}
	if _, err := oneDigest("w", []pass{{Digest: "a"}}, []pass{{Digest: "b"}}); err == nil {
		t.Error("differing digests accepted")
	}
}

// TestSmokeProbes runs the circuit once: every probe completes, and the
// paths the tree pins at zero allocations read zero here too.
func TestSmokeProbes(t *testing.T) {
	res, err := runProbes(newTracer(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(probes) {
		t.Fatalf("%d results for %d probes", len(res), len(probes))
	}
	for _, r := range res {
		if r.Ns <= 0 {
			t.Errorf("%s: %v ns/op", r.Name, r.Ns)
		}
		if slices.Contains(zeroAllocProbes, r.Name) && r.Allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", r.Name, r.Allocs)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*World).park":              "sim",
		"repro/internal/sim.(*Queue[go.shape.int]).Pop": "sim",
		"repro/internal/dox/racing.(*Stub).Resolve":     "dox",
		"repro/internal/netapi/simnet.(*Backend).Now":   "netapi",
		"repro/internal/measure.RunWeb":                 "harness",
		"repro/internal/lint.Run":                       "other",
		"crypto/sha256.block":                           "crypto",
		"runtime.mallocgc":                              "go_mem",
		"runtime.gcBgMarkWorker":                        "go_mem",
		"runtime.gopark":                                "go_sched",
		"runtime.memmove":                               "go_sched",
		"fmt.Sprintf":                                   "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestWorsening(t *testing.T) {
	higher := metricDef{Better: "higher", Bound: 0.1}
	lower := metricDef{Better: "lower", Bound: 0.1}
	if got := higher.worsening(100, 80); got != 0.2 {
		t.Errorf("higher-is-better 100 -> 80 worsens by %v", got)
	}
	if got := lower.worsening(100, 80); got != -0.2 {
		t.Errorf("lower-is-better 100 -> 80 worsens by %v", got)
	}
	if (comparison{def: lower, base: 100, cur: 109}).beyondBound() {
		t.Error("9% flagged against a 10% bound")
	}
	if !(comparison{def: lower, base: 100, cur: 111}).beyondBound() {
		t.Error("11% passed a 10% bound")
	}
}
