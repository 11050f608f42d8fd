package analysis_test

import (
	"testing"

	"cpx/internal/analysis"
	"cpx/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, ".", analysis.Determinism, "determinism")
}

func TestMPIUse(t *testing.T) {
	analysistest.Run(t, ".", analysis.MPIUse, "mpiuse")
}

func TestFloatReduce(t *testing.T) {
	analysistest.Run(t, ".", analysis.FloatReduce, "floatreduce")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, ".", analysis.HotAlloc, "hotalloc")
}

func TestIsSimCritical(t *testing.T) {
	for path, want := range map[string]bool{
		"cpx/internal/mpi":       true,
		"cpx/internal/amg":       true,
		"cpx/internal/coupler":   true,
		"cpx/internal/telemetry": true,
		"cpx/internal/trace":     true,
		"cpx/internal/fem":       true,
		"cpx/internal/analysis":  false,
		"cpx/cmd/cpx":            false,
		"other/internal/mpi":     false,
	} {
		if got := analysis.IsSimCritical(path); got != want {
			t.Errorf("IsSimCritical(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestModuleLintsClean runs the whole suite over this module and fails
// on any unsuppressed finding — so tier-1 (`go test ./...`) enforces the
// lint, with the finding's file and line in the failure. `make lint`
// runs it alone with -v, which also lists the suppressed findings.
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	res, err := analysis.Check("../..")
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	t.Logf("%d package(s), %d diagnostic(s), %d suppressed", res.Packages, len(res.Kept), len(res.Suppressed))
	for _, d := range res.Suppressed {
		t.Logf("%s (suppressed)", d)
	}
	for _, d := range res.Kept {
		t.Errorf("%s", d)
	}
}
