package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"cpx/internal/mgcfd"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
)

// TestGoldenStandaloneRuntimes pins the virtual run-time of one small
// standalone point per solver proxy (both pressure variants, since they
// run different smoothers and transfer kernels), and one pressure point
// at 512 ranks whose PCG reaches its iteration cap. The pressure run-time
// depends on the PCG iteration count, so it moves if the AMG numerics
// move at all. Recorded before the solvers' per-step vectors became
// reused scratch: host-side buffer reuse must leave every charge, and so
// every clock, exactly where it was.
func TestGoldenStandaloneRuntimes(t *testing.T) {
	o := quick()
	type row struct {
		name   string
		run    func() (float64, error)
		golden float64
	}
	rows := []row{
		{"pressure/Base", func() (float64, error) {
			rt, _, err := o.PressureRuntime(pressure.Config{MeshCells: 1_000_000, Steps: 4, Seed: 1}, 16, false)
			return rt, err
		}, 2.9404869679289445},
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
	}
	if !testing.Short() {
		// A pe-sweep point: no exit may add a collective to a capped
		// solve. About 80 s under the race detector.
		rows = append(rows, row{"pressure/Base@512", func() (float64, error) {
			rt, _, err := o.PressureRuntime(pressure.Config{MeshCells: 28_000_000, Steps: 10, Seed: 1}, 512, false)
			return rt, err
		}, 9.757241466002155})
	}
	for _, g := range rows {
		rt, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if rt != g.golden {
			t.Errorf("%s: run-time %v, golden %v", g.name, rt, g.golden)
		}
	}
}

// fig8Quick is the Quick Fig. 8 table, byte for byte.
const fig8Quick = "== fig8: Small coupled validation (150M/28M) on a 60-core budget ==\n" +
	"component            ranks  predicted(s)  measured(s)  err  \n" +
	"MG-CFD row 1 (150M)  29     0.01          0.03         57%  \n" +
	"MG-CFD row 2 (150M)  28     0.01          0.03         56%  \n" +
	"SIMPIC (28M equiv)   1      0.00          0.00         13%  \n" +
	"note: max per-instance prediction error 57% (paper: 18%)\n" +
	"note: paper allocation for comparison: 331 + 331 MG-CFD, 4,253 SIMPIC, 63 + 22 CU ranks\n" +
	"note: unallocated cores (past PE knees): 0\n"

// engineFingerprint renders what RunEngine produced, floats as their
// bits, one fact a line: the allocation, the predicted and measured
// times, the coupled run's elapsed time and folded rank digests, and each
// model component's name, kind and IterRatio.
func engineFingerprint(res *EngineResult) string {
	var sb strings.Builder
	bits := func(name string, xs ...float64) {
		fmt.Fprintf(&sb, "%s", name)
		for _, x := range xs {
			fmt.Fprintf(&sb, " %016x", math.Float64bits(x))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "cores %v unallocated %d\n", res.Alloc.Cores, res.Alloc.Unallocated)
	bits("times", res.Alloc.Times...)
	bits("alloc-predicted", res.Alloc.Predicted)
	bits("predicted", res.Predicted...)
	bits("measured", res.Measured...)
	bits("elapsed", res.Rep.Elapsed)
	h := fnv.New64a()
	for _, dg := range res.Rep.RankDigests {
		binary.Write(h, binary.LittleEndian, dg)
	}
	fmt.Fprintf(&sb, "digests %d %016x\n", len(res.Rep.RankDigests), h.Sum64())
	for _, cp := range res.Alloc.Components {
		fmt.Fprintf(&sb, "component %q cu=%v ", cp.Name, cp.IsCU)
		bits("iter", cp.IterRatio)
	}
	return sb.String()
}

// TestCoupledPipelinesPinned pins the coupled fit → allocate → run
// pipeline at smoke scale: the Quick Fig. 8 table byte for byte, and for
// both STC variants of RunEngine at a 400-core budget a SHA-256 of
// engineFingerprint. A change to how the pipeline is put together must
// leave every figure of both where it was.
func TestCoupledPipelinesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled smoke run")
	}
	o := quick()
	tb, err := o.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.String(); got != fig8Quick {
		t.Errorf("Quick Fig. 8 table:\n%s\nwant:\n%s", got, fig8Quick)
	}
	for _, v := range []struct {
		optimized bool
		sha       string
	}{
		{false, "4afb4db82d22614cdec35103bd7cb2076b305b87b76ac004f0607aed945056d5"},
		{true, "ac4f6fe8b1ba42138688fcd4d478b2e5c2168922a8bc004445cf881f042a0be1"},
	} {
		res, err := o.RunEngine(v.optimized, 400)
		if err != nil {
			t.Fatal(err)
		}
		fp := engineFingerprint(res)
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); sum != v.sha {
			t.Errorf("RunEngine(optimized=%v, 400): fingerprint SHA-256 %s, want %s:\n%s", v.optimized, sum, v.sha, fp)
		}
	}
}
