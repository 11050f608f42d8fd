package harness

import (
	"testing"

	"cpx/internal/mgcfd"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
)

// TestGoldenStandaloneRuntimes pins the virtual run-time of one small
// standalone point per solver proxy (both pressure variants, since they
// run different smoothers and transfer kernels). The pressure run-time
// depends on the PCG iteration count, so it moves if the AMG numerics
// move at all. Recorded before the solvers' per-step vectors became
// reused scratch: host-side buffer reuse must leave every charge, and so
// every clock, exactly where it was.
func TestGoldenStandaloneRuntimes(t *testing.T) {
	o := quick()
	for _, g := range []struct {
		name   string
		run    func() (float64, error)
		golden float64
	}{
		{"pressure/Base", func() (float64, error) {
			rt, _, err := o.PressureRuntime(pressure.Config{MeshCells: 1_000_000, Steps: 4, Seed: 1}, 16, false)
			return rt, err
		}, 2.9308188271866644},
		{"pressure/Optimized", func() (float64, error) {
			rt, _, err := o.PressureRuntime(pressure.Config{MeshCells: 1_000_000, Steps: 4, Seed: 1, Variant: pressure.Optimized}, 16, false)
			return rt, err
		}, 2.2603191212973988},
		{"simpic", func() (float64, error) {
			return o.SimpicRuntime(simpic.BaseSTC(28_000_000), 16)
		}, 312.0008358687693},
		{"mgcfd", func() (float64, error) {
			return o.MGCFDRuntime(mgcfd.Config{MeshCells: 1_000_000, Steps: 10, Seed: 1}, 16)
		}, 0.5369042729954785},
	} {
		rt, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if rt != g.golden {
			t.Errorf("%s: run-time %v, golden %v", g.name, rt, g.golden)
		}
	}
}
