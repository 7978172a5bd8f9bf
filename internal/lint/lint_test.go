package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestNoWallClock(t *testing.T) {
	analysistest.Run(t, "testdata", lint.NoWallClock,
		"repro/internal/wallclock",
		"repro/internal/badpragma",
		"repro/cmd/timing",
	)
}

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SeededRand,
		"repro/internal/randuser",
		"repro/cmd/timing",
	)
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.MapOrder, "repro/internal/mapiter")
}

func TestPoolOwn(t *testing.T) {
	analysistest.Run(t, "testdata", lint.PoolOwn, "repro/internal/pooluser")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HotAlloc, "repro/internal/hotuser")
}

func TestBackendPurity(t *testing.T) {
	analysistest.Run(t, "testdata", lint.BackendPurity,
		"repro/internal/netapi/livenet",
		"repro/internal/netapi/simnet",
		"repro/internal/dox",
		"repro/internal/racing",
	)
}

func TestLayering(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Layering,
		"repro/internal/h2",
		"repro/internal/measurelike",
	)
}

func TestDeadAPI(t *testing.T) {
	analysistest.RunDeadAPI(t, "testdata",
		"repro/internal/deadlib",
		"repro/internal/deadpeer",
		"repro/cmd/deaduser",
	)
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	in := lint.Baseline{"repro/internal/quic": 12, "repro/internal/h2": 3, "repro/internal/empty": 0}
	if err := lint.WriteBaseline(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := lint.ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out["repro/internal/quic"] != 12 || out["repro/internal/h2"] != 3 {
		t.Fatalf("round trip = %v", out)
	}
	missing, err := lint.ReadBaseline(filepath.Join(t.TempDir(), "nope.txt"))
	if err != nil || len(missing) != 0 {
		t.Fatalf("missing baseline = %v, %v", missing, err)
	}
}

func TestApplyBaselineRatchet(t *testing.T) {
	findings := []lint.Finding{
		{Rule: "layering", PkgPath: "repro/internal/h2", Message: "a"},
		{Rule: "layering", PkgPath: "repro/internal/h2", Message: "b"},
		{Rule: "layering", PkgPath: "repro/internal/quic", Message: "c"},
		{Rule: "maporder", PkgPath: "repro/internal/report", Message: "d"},
	}
	base := lint.Baseline{"repro/internal/h2": 2, "repro/internal/quic": 2}

	failing, counts, shrunk := lint.ApplyBaseline(findings, base)
	if len(failing) != 1 || failing[0].Rule != "maporder" {
		t.Fatalf("within budget: failing = %v", failing)
	}
	if counts["repro/internal/h2"] != 2 || counts["repro/internal/quic"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if len(shrunk) != 1 || shrunk[0] != "repro/internal/quic 2 -> 1" {
		t.Fatalf("shrunk = %v", shrunk)
	}

	// Growth in one package surfaces that package's entire debt.
	failing, _, _ = lint.ApplyBaseline(findings, lint.Baseline{"repro/internal/h2": 1, "repro/internal/quic": 2})
	var layeringFails int
	for _, f := range failing {
		if f.Rule == "layering" {
			if f.PkgPath != "repro/internal/h2" {
				t.Fatalf("unexpected failing package %s", f.PkgPath)
			}
			layeringFails++
		}
	}
	if layeringFails != 2 {
		t.Fatalf("layering failures = %d, want 2", layeringFails)
	}
}
