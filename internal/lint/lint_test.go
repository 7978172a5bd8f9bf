package lint_test

import (
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
		"repro/internal/tlsmini",
	)
}

// TestLayering checks the layering boundary that backendpurity now guards:
// a protocol package (h2) importing the simulator is flagged, and a
// measurement package (measurelike) that drives the simulator is not.
func TestLayering(t *testing.T) {
	analysistest.Run(t, "testdata", lint.BackendPurity,
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
