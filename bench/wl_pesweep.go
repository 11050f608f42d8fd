package main

import (
	"fmt"
	"math"
	"strings"

	"cpx/internal/cluster"
	"cpx/internal/harness"
	"cpx/internal/mgcfd"
	"cpx/internal/perfmodel"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
)

// pePoint is one standalone run of the Fig. 4/6 parallel-efficiency
// sweeps.
type pePoint struct {
	Solver string `json:"solver"`
	Cores  int    `json:"cores"`
}

// pePoints are fixed: the seed only shuffles their order.
var pePoints = []pePoint{
	{"pressure", 128}, {"pressure", 512},
	{"simpic", 128}, {"simpic", 512}, {"simpic", 4096},
	{"mgcfd", 128}, {"mgcfd", 512}, {"mgcfd", 2048},
}

const peMeshCells = 28_000_000

// peSweepWL runs the mini-apps standalone: sparse/AMG kernels in the
// pressure solver, flux kernels in MG-CFD, particle migration in
// SIMPIC, the rank runtime at 2048 and 4096 ranks — and no coupler.
type peSweepWL struct {
	opts     harness.Options
	order    [][]int               // per iteration: permutation of pePoints
	runtimes []map[pePoint]float64 // per iteration: virtual run-times
}

func (w *peSweepWL) run(p pePoint) (float64, error) {
	switch p.Solver {
	case "pressure":
		rt, _, err := w.opts.PressureRuntime(pressure.Config{MeshCells: peMeshCells, Steps: 10, Seed: 1}, p.Cores, false)
		return rt, err
	case "simpic":
		return w.opts.SimpicRuntime(simpic.BaseSTC(peMeshCells), p.Cores)
	default:
		return w.opts.MGCFDRuntime(mgcfd.Config{MeshCells: 24_000_000, Steps: 100, Seed: 1}, p.Cores)
	}
}

func (w *peSweepWL) Setup(seed int64) error {
	w.order = make([][]int, maxIters+1)
	for it := range w.order {
		w.order[it] = substream(seed, "pe-sweep/order", it).Perm(len(pePoints))
	}
	w.runtimes = make([]map[pePoint]float64, maxIters+1)
	w.opts = harness.Options{Machine: cluster.ARCHER2()}
	// Warm-up: each solver once at 16 ranks on a small problem.
	if _, _, err := w.opts.PressureRuntime(pressure.Config{MeshCells: 1_000_000, Steps: 2, Seed: 1}, 16, false); err != nil {
		return fmt.Errorf("warm-up pressure: %w", err)
	}
	if _, err := w.opts.SimpicRuntime(simpic.BaseSTC(peMeshCells), 16); err != nil {
		return fmt.Errorf("warm-up simpic: %w", err)
	}
	if _, err := w.opts.MGCFDRuntime(mgcfd.Config{MeshCells: 1_000_000, Steps: 10, Seed: 1}, 16); err != nil {
		return fmt.Errorf("warm-up mgcfd: %w", err)
	}
	return nil
}

func (w *peSweepWL) Inputs() any {
	return map[string]any{"points": pePoints, "order": w.order}
}

func (p pePoint) spanName() string { return fmt.Sprintf("harness.%s/p%d", p.Solver, p.Cores) }

func (w *peSweepWL) Iterate(it int, tr *tracer, ck *checks) {
	got := map[pePoint]float64{}
	w.runtimes[it] = got
	for _, i := range w.order[it] {
		p := pePoints[i]
		_, end := tr.span(p.spanName())
		rt, err := w.run(p)
		end()
		if !ck.check(err == nil && rt > 0, "%s@%d: runtime %v, error %v", p.Solver, p.Cores, rt, err) {
			continue
		}
		got[p] = rt
		if it > 0 {
			if ref, ok := w.runtimes[0][p]; ok {
				ck.check(rt == ref, "%s@%d iteration %d: runtime %v, first iteration %v", p.Solver, p.Cores, it, rt, ref)
			}
		}
	}
	// Strong scaling: more cores must not be slower at these sizes.
	for i := 1; i < len(pePoints); i++ {
		a, b := pePoints[i-1], pePoints[i]
		if a.Solver != b.Solver {
			continue
		}
		ck.check(got[b] < got[a], "%s: %v s @%d cores is not below %v s @%d", a.Solver, got[b], b.Cores, got[a], a.Cores)
	}
}

// proxyErrPct is the Fig. 4 proxy error: how far the SIMPIC stand-in
// is from the pressure solver it stands in for, at 128 and 512 cores.
func proxyErrPct(rt map[pePoint]float64) float64 {
	worst := 0.0
	for _, cores := range []int{128, 512} {
		e := perfmodel.RelativeError(rt[pePoint{"simpic", cores}], rt[pePoint{"pressure", cores}])
		worst = math.Max(worst, 100*e)
	}
	return worst
}

func (w *peSweepWL) EndToEnd(ms *metricSet, n int, ck *checks) {
	ms.set("model_err_pct", proxyErrPct(w.runtimes[0]), 2)
}

func (w *peSweepWL) PerLayer(ms *metricSet, it int, spans []Span, ck *checks) {
	total := func(prefix string) (sum float64, n int) {
		for _, s := range spans {
			if strings.HasPrefix(s.Name, prefix) {
				sum += s.Duration()
				n++
			}
		}
		return sum, n
	}
	for _, m := range []struct{ metric, prefix string }{
		{"harness.pressure_s", "harness.pressure/"},
		{"harness.simpic_s", "harness.simpic/"},
		{"harness.mgcfd_s", "harness.mgcfd/"},
		{"harness.pressure_p512_s", "harness.pressure/p512"},
		{"harness.simpic_p4096_s", "harness.simpic/p4096"},
		{"harness.mgcfd_p2048_s", "harness.mgcfd/p2048"},
	} {
		sum, n := total(m.prefix)
		ms.set(m.metric, sum, n)
	}
	elapsed, ranks, digest := 0.0, 0, uint32(0)
	for _, p := range pePoints {
		rt := w.runtimes[it][p]
		elapsed += rt
		ranks += p.Cores
		digest = fold32(digest, math.Float64bits(rt))
	}
	ms.set("virtual.elapsed_s", elapsed, len(pePoints))
	ms.set("virtual.digest32", float64(digest), len(pePoints))
	ms.set("virtual.ranks", float64(ranks), len(pePoints))
}
