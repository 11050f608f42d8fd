package main

import (
	"fmt"
	"math"

	"cpx/internal/cluster"
	"cpx/internal/harness"
	"cpx/internal/perfmodel"
)

// engineBudget is the core budget of the Fig. 9 pipeline here. The
// paper's 40,000 does not finish on the reference host even in Quick
// geometry; 400 runs the same pipeline (fit → Alg. 1 → 16-instance /
// 15-CU coupled run → standalone validations) in about 5 s a variant.
const engineBudget = 400

// engineWL runs harness.RunEngine for the Base-STC and Optimized-STC
// variants. Almost all host time is the sliding-plane remap on the
// coupling unit that absorbs the leftover ranks.
type engineWL struct {
	opts  harness.Options
	order [][2]bool // per iteration: the two variants (true = Optimized-STC) in run order
	runs  [][2]engineRun
}

// engineRun is what one RunEngine produced, indexed by variant
// (0 = Base, 1 = Optimized).
type engineRun struct {
	ok      bool
	elapsed float64
	digest  uint32
	ranks   int
	errPct  float64
}

func (w *engineWL) Setup(seed int64) error {
	// The harness takes no seed; the only input to draw is the order of
	// the two variants within each iteration.
	w.order = make([][2]bool, maxIters+1)
	for it := range w.order {
		first := substream(seed, "engine/order", it).Intn(2) == 1
		w.order[it] = [2]bool{first, !first}
	}
	w.runs = make([][2]engineRun, maxIters+1)
	w.opts = harness.Options{Machine: cluster.ARCHER2(), Quick: true}
	// Warm-up: the Quick Fig. 8 pipeline — the same fit, allocate and
	// coupled-run path at smoke scale.
	if _, err := w.opts.Fig8(); err != nil {
		return fmt.Errorf("warm-up fig8: %w", err)
	}
	return nil
}

func (w *engineWL) Inputs() any {
	optimizedFirst := make([]bool, len(w.order))
	for i, o := range w.order {
		optimizedFirst[i] = o[0]
	}
	return map[string]any{"budget": engineBudget, "quick": true, "optimized_first": optimizedFirst}
}

func (w *engineWL) Iterate(it int, tr *tracer, ck *checks) {
	for _, optimized := range w.order[it] {
		v, name := 0, "harness.engine_base"
		if optimized {
			v, name = 1, "harness.engine_opt"
		}
		_, end := tr.span(name)
		res, err := w.opts.RunEngine(optimized, engineBudget)
		end()
		if !ck.check(err == nil, "RunEngine(optimized=%v): %v", optimized, err) {
			continue
		}
		run := engineRun{ok: true, elapsed: res.Rep.Elapsed, ranks: res.TotalRanks,
			digest: fold32(0, res.Rep.RankDigests...)}
		for i := range res.Measured {
			run.errPct = math.Max(run.errPct, 100*perfmodel.RelativeError(res.Predicted[i], res.Measured[i]))
		}
		w.runs[it][v] = run

		granted := res.Alloc.Unallocated
		for _, c := range res.Alloc.Cores {
			granted += c
		}
		ck.check(res.TotalRanks <= engineBudget && granted <= engineBudget,
			"engine(optimized=%v): %d ranks launched, %d granted, budget %d", optimized, res.TotalRanks, granted, engineBudget)
		ck.check(len(res.Measured) == 16 && len(res.Rep.RankDigests) == res.TotalRanks,
			"engine(optimized=%v): %d instances, %d digests for %d ranks", optimized, len(res.Measured), len(res.Rep.RankDigests), res.TotalRanks)
		// Virtual results must repeat bit for bit across iterations.
		if ref := w.runs[0][v]; it > 0 && ref.ok {
			ck.check(run.elapsed == ref.elapsed && run.digest == ref.digest && run.errPct == ref.errPct,
				"engine(optimized=%v) iteration %d: elapsed %v digest %08x err %v, first iteration %v %08x %v",
				optimized, it, run.elapsed, run.digest, run.errPct, ref.elapsed, ref.digest, ref.errPct)
		}
	}
}

func (w *engineWL) EndToEnd(ms *metricSet, n int, ck *checks) {
	worst := 0.0
	for it := 0; it < n; it++ {
		for _, r := range w.runs[it] {
			worst = math.Max(worst, r.errPct)
		}
	}
	ms.set("model_err_pct", worst, 2*16*n)
}

func (w *engineWL) PerLayer(ms *metricSet, it int, spans []Span, ck *checks) {
	ms.setMedian("harness.engine_base_s", spanDurations(spans, "harness.engine_base"))
	ms.setMedian("harness.engine_opt_s", spanDurations(spans, "harness.engine_opt"))
	base, opt := w.runs[it][0], w.runs[it][1]
	ms.set("virtual.elapsed_s", base.elapsed+opt.elapsed, 2)
	ms.set("virtual.digest32", float64(fold32(0, uint64(base.digest), uint64(opt.digest))), 2)
	ms.set("virtual.ranks", float64(base.ranks+opt.ranks), 2)
}
