package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bytepool"
)

// job is what one child process is asked to do. Each (workload, mode)
// runs in a fresh process so that peak RSS, the heap the passes start
// from, and GOMAXPROCS are its own.
type job struct {
	// Probes selects the probe circuit; otherwise Workload is measured.
	Probes bool `json:"probes,omitempty"`
	// SetupOnly stops after the workload's set-up: the parent times the
	// whole child, from exec to exit, as one set-up sample.
	SetupOnly bool   `json:"setup_only,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Seed      int64  `json:"seed"`
	Smoke     bool   `json:"smoke,omitempty"`
	// Parallelism is both GOMAXPROCS of the child and the Parallelism
	// knob of every campaign in it.
	Parallelism int `json:"parallelism"`
	// Seconds is the measuring window; passes repeat until it is used
	// up and MinPasses have run.
	Seconds   float64 `json:"seconds"`
	MinPasses int     `json:"min_passes"`
	// Traced appends a second window of passes under the CPU profiler
	// with spans recorded; the first window stays untraced.
	Traced bool `json:"traced,omitempty"`
}

func (j job) sizes() sizes {
	if j.Smoke {
		return smokeSizes
	}
	return benchSizes
}

// report is what a child sends back.
type report struct {
	Passes []pass `json:"passes,omitempty"`
	// TracedPasses ran under the profiler (Traced jobs only).
	TracedPasses []pass `json:"traced_passes,omitempty"`
	// Pool and GC counters cover the untraced passes.
	PoolHits   uint64  `json:"pool_hits"`
	PoolMisses uint64  `json:"pool_misses"`
	GCCPUShare float64 `json:"gc_cpu_share"`
	GCCycles   uint64  `json:"gc_cycles"`
	// CPUShare buckets the traced passes' profile.
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`
	Probes   []probeResult      `json:"probes,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	// PeakRSSMB and WallS are filled in by the parent: the child's
	// rusage, and the wall time from starting it to reaping it.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	WallS     float64 `json:"wall_s,omitempty"`
}

// gcCounters reads the runtime's own accounting of collector work.
func gcCounters() (gcCPU, busyCPU float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64(), s[3].Value.Uint64()
}

// runJob executes a job in this process.
func runJob(j job) (*report, error) {
	runtime.GOMAXPROCS(j.Parallelism)
	if j.Probes {
		tr := newTracer()
		scale := 1
		if j.Smoke {
			scale = 100
		}
		res, err := runProbes(tr, scale)
		return &report{Probes: res, Spans: tr.spans}, err
	}
	w, ok := workloadByName(j.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", j.Workload)
	}
	rep := &report{}
	run, err := w.setup(j.Seed, j.sizes())
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if j.SetupOnly {
		return rep, nil
	}

	window := func(tr *tracer, parent int) ([]pass, error) {
		var passes []pass
		budget := time.Duration(j.Seconds * float64(time.Second))
		for start := time.Now(); len(passes) < j.MinPasses || time.Since(start) < budget; {
			id := tr.begin(parent, "pass")
			p, err := run(j.Parallelism, tr, id)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", w.name, len(passes), err)
			}
			passes = append(passes, p)
		}
		return passes, nil
	}

	runtime.GC()
	bytepool.ResetStats()
	gc0, busy0, cycles0 := gcCounters()
	if rep.Passes, err = window(nil, 0); err != nil {
		return nil, err
	}
	runtime.GC() // the cpu classes are refreshed at the end of a cycle
	gc1, busy1, cycles1 := gcCounters()
	rep.PoolHits, rep.PoolMisses = bytepool.Stats()
	if busy1 > busy0 {
		rep.GCCPUShare = (gc1 - gc0) / (busy1 - busy0)
	}
	rep.GCCycles = cycles1 - cycles0 - 1

	if j.Traced {
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		root := tr.begin(0, "workload/"+w.name)
		rep.TracedPasses, err = window(tr, root)
		tr.end(root)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if rep.CPUShare, err = cpuShares(prof.Bytes()); err != nil {
			return nil, err
		}
		rep.Spans = tr.spans
	}
	return rep, nil
}

// spawn runs a job in a child process: this binary again, with the job
// as its only argument.
func spawn(j job) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	// Far above any job's own duration; a hung child must not outlive
	// the run's 180 s allowance.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(j.Parallelism))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", arg, err)
	}
	rep := &report{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("child %s: bad report: %w", arg, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("child rusage unavailable")
	}
	rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rep.WallS = wall.Seconds()
	return rep, nil
}

// childMain is the child side of spawn.
func childMain(arg string) error {
	var j job
	if err := json.Unmarshal([]byte(arg), &j); err != nil {
		return fmt.Errorf("bad job: %w", err)
	}
	rep, err := runJob(j)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}
