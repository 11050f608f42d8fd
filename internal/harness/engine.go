package harness

import (
	"fmt"
	"math"

	"cpx/internal/coupler"
	"cpx/internal/mesh"
	"cpx/internal/mgcfd"
	"cpx/internal/order"
	"cpx/internal/perfmodel"
	"cpx/internal/simpic"
)

// ---- Curve fitting from standalone runs -------------------------------------

// fit runs a mini-app standalone at each core count and fits its curve;
// run returns the virtual run-time on p cores.
func fit(cores []int, run func(p int) (float64, error)) (*perfmodel.Curve, error) {
	samples := make([]perfmodel.Sample, 0, len(cores))
	for _, p := range cores {
		rt, err := run(p)
		if err != nil {
			return nil, err
		}
		samples = append(samples, perfmodel.Sample{Cores: p, Runtime: rt})
	}
	return perfmodel.FitCurve(samples)
}

// cuCurve builds the analytic run-time curve of a coupling unit for ONE
// exchange: each CU rank maps and interpolates its share of the targets
// and moves its share of the interface bytes.
func (o Options) cuCurve(points int, kind coupler.InterfaceKind, search coupler.Search) (*perfmodel.Curve, error) {
	m := o.Machine
	timeAt := func(p int) float64 {
		targets := float64(points) / float64(p)
		mapper := &coupler.Mapper{Kind: search, LastHits: 95, LastMisses: 5}
		rebuild := kind == coupler.SlidingPlane
		w := mapper.MapWork(targets, float64(points), rebuild)
		w = w.Add(coupler.InterpolateWork(targets))
		bytes := targets * 5 * 8 * 2 // both directions, 5 fields
		return m.ComputeTime(w) + bytes/m.EffectiveInterBW() + 4*m.InterNodeLatency
	}
	var samples []perfmodel.Sample
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		samples = append(samples, perfmodel.Sample{Cores: p, Runtime: timeAt(p)})
	}
	return perfmodel.FitCurve(samples)
}

// ---- The coupled pipeline: fit, Alg. 1, coupled run ------------------------

// layoutInstance is one solver instance of a coupled layout.
type layoutInstance struct {
	name string
	kind coupler.SolverKind // KindMGCFD or KindSIMPIC
	mesh int64              // for SIMPIC: the pressure-solver equivalent
}

// coupledLayout is one scenario of the paper's method (Sections V-B and
// V-C): a chain of instances, each coupled to the next by one unit,
// sized by Alg. 1 from standalone PE curves on a core budget and then
// run coupled at that allocation. Fig. 8 and Fig. 9 are two layouts.
type coupledLayout struct {
	label    string // progress-log prefix
	insts    []layoutInstance
	budget   int
	steps    int             // density steps the prediction is for
	sample   int             // density steps the coupled run executes
	mgCores  map[int64][]int // MG-CFD fit core counts per mesh
	stc      simpic.Config   // the SIMPIC instance's configuration
	spCores  []int           // and its fit core counts
	minRanks int             // every instance's starting allocation
}

// EngineResult carries the model and the coupled run of one layout
// (runCoupled); RunEngine adds the per-instance validation, Measured and
// Predicted.
type EngineResult struct {
	Alloc      *perfmodel.Allocation
	Sim        *coupler.Simulation
	Rep        *coupler.Report
	FullSteps  int
	Measured   []float64 // per instance, scaled to FullSteps
	Predicted  []float64 // per instance, the model's run-time at its allocation
	TotalRanks int
}

// runCoupled is the paper's method on one layout: it fits the standalone
// curves, builds the model components and the coupled simulation in one
// pass over the chain, allocates the budget with Alg. 1 and runs the
// coupled sample at the allocated ranks.
func (o Options) runCoupled(l coupledLayout) (*EngineResult, error) {
	o.logf("%s: fitting curves", l.label)
	mgCurves := map[int64]*perfmodel.Curve{}
	for _, sz := range order.SortedKeys(l.mgCores) {
		c, err := fit(l.mgCores[sz], func(p int) (float64, error) {
			o.logf("  fit mgcfd %dM @ %d", sz/1_000_000, p)
			return o.MGCFDRuntime(mgcfd.Config{MeshCells: sz, Steps: l.steps, Seed: 1}, p)
		})
		if err != nil {
			return nil, err
		}
		mgCurves[sz] = c
	}
	spCurve, err := fit(l.spCores, func(p int) (float64, error) {
		o.logf("  fit simpic cells=%d ppc=%d @ %d", l.stc.Cells, l.stc.ParticlesPerCell, p)
		return o.SimpicRuntime(l.stc, p)
	})
	if err != nil {
		return nil, err
	}

	// Components: instances, then units; unit i couples instance i and
	// i+1. IterRatio converts each curve's base duration to l.steps:
	// MG-CFD curves were fitted at l.steps (ratio 1), SIMPIC's at the
	// STC's full Steps, CU curves per exchange.
	var comps, cus []perfmodel.Component
	sim := &coupler.Simulation{DensitySteps: l.sample, RotationPerStep: 0.002, Scale: coupler.ProductionScale()}
	for i, in := range l.insts {
		cp := perfmodel.Component{Name: in.name, Curve: mgCurves[in.mesh], IterRatio: 1, MinRanks: l.minRanks}
		spec := coupler.InstanceSpec{Name: in.name, Kind: in.kind, MeshCells: in.mesh, Seed: int64(i + 1)}
		if in.kind == coupler.KindSIMPIC {
			// The combustor runs 2 pressure steps per density step; the
			// curve's base time represents simpic.PressureStepsEquivalent
			// pressure steps (the STC equivalence of Fig. 3).
			cp.Curve = spCurve
			cp.IterRatio = float64(2*l.steps) / float64(simpic.PressureStepsEquivalent)
			stc := l.stc
			spec.Simpic = &stc
		}
		comps = append(comps, cp)
		sim.Instances = append(sim.Instances, spec)
		if i == 0 {
			continue
		}
		// The unit from the previous instance to this one is steady when
		// either side is the combustor, else a sliding plane; its
		// interface is that of the smaller mesh.
		prev := l.insts[i-1]
		kind, frac, every := coupler.SlidingPlane, coupler.SlidingFraction, 1
		if prev.kind == coupler.KindSIMPIC || in.kind == coupler.KindSIMPIC {
			kind, frac, every = coupler.SteadyState, coupler.SteadyFraction, coupler.SteadyExchangeEvery
		}
		points := mesh.InterfaceCells(mesh.CubeDims(min(prev.mesh, in.mesh)), frac)
		curve, err := o.cuCurve(points, kind, coupler.TreePrefetch)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("CU %02d-%02d", i, i+1)
		cus = append(cus, perfmodel.Component{Name: name, Curve: curve, IsCU: true,
			IterRatio: float64(l.steps) / float64(every), MinRanks: 1})
		sim.Units = append(sim.Units, coupler.UnitSpec{Name: name, A: i - 1, B: i, Kind: kind,
			Points: points, Search: coupler.TreePrefetch, ExchangeEvery: every})
	}

	alloc, err := perfmodel.Allocate(append(comps, cus...), l.budget)
	if err != nil {
		return nil, err
	}
	o.logf("%s allocation:\n%s", l.label, alloc)
	for i := range sim.Instances {
		sim.Instances[i].Ranks = alloc.Cores[i]
	}
	for u := range sim.Units {
		sim.Units[u].Ranks = alloc.Cores[len(sim.Instances)+u]
	}
	o.logf("%s: running coupled sim on %d ranks", l.label, sim.TotalRanks())
	rep, err := sim.Run(o.mpiConfig(false))
	if err != nil {
		return nil, err
	}
	return &EngineResult{Alloc: alloc, Sim: sim, Rep: rep, FullSteps: l.steps, TotalRanks: sim.TotalRanks()}, nil
}

// ---- Fig. 8: small coupled validation ---------------------------------------

// fig8Layout is the small coupled test: two MG-CFD instances on the 150M
// Rotor37 mesh and one SIMPIC instance standing in for a 28M-cell
// pressure solve, on a 5,000-core budget, predicted for 100 density
// steps.
func (o Options) fig8Layout() coupledLayout {
	mg, sp := int64(150_000_000), int64(28_000_000)
	l := coupledLayout{
		label:    "fig8",
		budget:   5000,
		steps:    100,
		sample:   coupler.SteadyExchangeEvery,
		mgCores:  map[int64][]int{mg: {100, 200, 400, 800, 1600}},
		stc:      simpic.BaseSTC(sp),
		spCores:  []int{200, 800, 1600, 3200, 4800},
		minRanks: 1,
	}
	if o.Quick {
		mg, sp = 40_000, 40_000
		l.budget, l.steps, l.sample = 60, 8, 4
		l.mgCores = map[int64][]int{mg: {8, 16, 24}}
		l.stc = simpic.Config{Cells: 4096, ParticlesPerCell: 20, Steps: 2 * l.steps}
		l.spCores = []int{8, 16, 24}
	}
	l.insts = []layoutInstance{
		{"MG-CFD row 1 (150M)", coupler.KindMGCFD, mg},
		{"MG-CFD row 2 (150M)", coupler.KindMGCFD, mg},
		{"SIMPIC (28M equiv)", coupler.KindSIMPIC, sp},
	}
	return l
}

// Fig8 reproduces the small coupled validation: the model allocates
// fig8Layout's budget and predicts per-instance run-times, the coupled
// mini-app simulation is executed at that allocation, and the prediction
// errors are reported.
func (o Options) Fig8() (*Table, error) {
	l := o.fig8Layout()
	res, err := o.runCoupled(l)
	if err != nil {
		return nil, err
	}
	alloc, rep := res.Alloc, res.Rep
	t := &Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("Small coupled validation (150M/28M) on a %d-core budget", l.budget),
		Headers: []string{"component", "ranks", "predicted(s)", "measured(s)", "err"},
	}
	var worst float64
	for i, in := range l.insts {
		measured := scaleSampled(rep.InstanceTime[i], rep.InstanceSetup[i], rep.DensitySteps, l.steps)
		e := perfmodel.RelativeError(alloc.Times[i], measured)
		worst = max(worst, e)
		t.AddRow(in.name, d(alloc.Cores[i]), f2(alloc.Times[i]), f2(measured), pct(e))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max per-instance prediction error %.0f%% (paper: 18%%)", 100*worst),
		"paper allocation for comparison: 331 + 331 MG-CFD, 4,253 SIMPIC, 63 + 22 CU ranks",
		fmt.Sprintf("unallocated cores (past PE knees): %d", alloc.Unallocated))
	return t, nil
}

// ---- Fig. 9: full-engine simulation -----------------------------------------

// engineInstances returns the 16-instance HPC-Combustor-HPT layout of
// Fig. 9b at full scale: one 8M inlet row, eleven 24M compressor rows, a
// 150M row, the 380M-equivalent combustor (SIMPIC), and the 150M + 300M
// turbine rows.
func engineInstances() []layoutInstance {
	out := []layoutInstance{{"row01 (8M)", coupler.KindMGCFD, 8_000_000}}
	for i := 2; i <= 12; i++ {
		out = append(out, layoutInstance{fmt.Sprintf("row%02d (24M)", i), coupler.KindMGCFD, 24_000_000})
	}
	return append(out,
		layoutInstance{"row13 (150M)", coupler.KindMGCFD, 150_000_000},
		layoutInstance{"combustor (380M equiv)", coupler.KindSIMPIC, 380_000_000},
		layoutInstance{"row15 (150M)", coupler.KindMGCFD, 150_000_000},
		layoutInstance{"row16 (300M)", coupler.KindMGCFD, 300_000_000},
	)
}

// engineLayout is the full engine of Fig. 9 for one STC variant,
// predicted for one revolution (the paper: 1,000 density-solver steps)
// from a sample of one steady exchange period, every instance starting
// at 100 ranks.
func (o Options) engineLayout(optimized bool, budget int) coupledLayout {
	l := coupledLayout{
		label:  fmt.Sprintf("engine(optimized=%v)", optimized),
		insts:  engineInstances(),
		budget: budget,
		steps:  1000,
		sample: coupler.SteadyExchangeEvery,
		mgCores: map[int64][]int{
			8_000_000:   {64, 128, 384},
			24_000_000:  {64, 256, 1024},
			150_000_000: {100, 500, 2000},
			300_000_000: {100, 800, 4000},
		},
		stc:      simpic.BaseSTC(380_000_000),
		spCores:  []int{1000, 6000, 16000},
		minRanks: 100,
	}
	if optimized {
		l.stc = simpic.OptimizedSTC()
		// The Optimized-STC weight is calibrated against the *28M*
		// optimized pressure solver (Fig. 6b/c); the engine's combustor is
		// the 380M case, 13.6x larger.
		l.stc.ParticleWeight *= 380.0 / 28.0
		l.spCores = []int{1000, 12000, 32000}
	}
	if o.Quick {
		// Smoke-test geometry: meshes shrunk 1000x, tiny budget.
		l.steps, l.minRanks = 40, 4
		l.mgCores = map[int64][]int{
			8_000:   {2, 4, 8},
			24_000:  {2, 4, 8},
			150_000: {4, 8, 16},
			300_000: {4, 8, 16},
		}
		for i := range l.insts {
			l.insts[i].mesh /= 1000
		}
		l.stc = simpic.Config{Cells: 2048, ParticlesPerCell: 10, Steps: 2 * l.steps}
		if optimized {
			l.stc.ParticlesPerCell = 5
		}
		l.spCores = []int{4, 8, 16}
	}
	return l
}

// RunEngine runs the engine layout of one STC variant through the
// coupled pipeline and validates each instance's prediction against a
// standalone run.
func (o Options) RunEngine(optimized bool, budget int) (*EngineResult, error) {
	l := o.engineLayout(optimized, budget)
	res, err := o.runCoupled(l)
	if err != nil {
		return nil, err
	}
	// Per-instance validation (Fig. 9a): the paper compares the model's
	// predictions against the *standalone* run-time of each mini-app
	// instance at its allocated rank count (Section V-B), so the fit
	// quality is measured apart from the coupled exchange dynamics.
	type standaloneKey struct {
		kind coupler.SolverKind
		mesh int64
		p    int
	}
	cache := map[standaloneKey]float64{}
	for i, in := range l.insts {
		p := res.Alloc.Cores[i]
		key := standaloneKey{in.kind, in.mesh, p}
		measured, ok := cache[key]
		if !ok {
			var err error
			if in.kind == coupler.KindSIMPIC {
				o.logf("engine: standalone combustor @ %d ranks", p)
				var rt float64
				rt, err = o.SimpicRuntime(l.stc, p)
				// The component represents IterRatio x the curve's base
				// configuration; scale the standalone measurement the same.
				measured = rt * res.Alloc.Components[i].IterRatio
			} else {
				o.logf("engine: standalone %s @ %d ranks", in.name, p)
				measured, err = o.MGCFDRuntime(mgcfd.Config{MeshCells: in.mesh, Steps: l.steps, Seed: 1}, p)
			}
			if err != nil {
				return nil, err
			}
			cache[key] = measured
		}
		res.Measured = append(res.Measured, measured)
		res.Predicted = append(res.Predicted, res.Alloc.Times[i])
	}
	return res, nil
}

// scaledRun extrapolates a sampled coupled run to `full` density steps by
// scaleSampled and returns its slowest instance.
func scaledRun(rep *coupler.Report, full int) float64 {
	out := 0.0
	for i := range rep.InstanceTime {
		out = max(out, scaleSampled(rep.InstanceTime[i], rep.InstanceSetup[i], rep.DensitySteps, full))
	}
	return out
}

// Fig9 reproduces the full-engine experiment set: the rank allocation
// table (9b), per-instance model errors for both STC variants (9a), and
// the predicted vs measured Optimized/Base speedup (9c).
func (o Options) Fig9() ([]*Table, error) {
	budget := 40_000
	base, err := o.RunEngine(false, budget)
	if err != nil {
		return nil, fmt.Errorf("fig9 base: %w", err)
	}
	opt, err := o.RunEngine(true, budget)
	if err != nil {
		return nil, fmt.Errorf("fig9 optimized: %w", err)
	}
	insts := engineInstances()

	// 9b: rank allocation.
	t9b := &Table{
		ID:      "fig9b",
		Title:   "Full engine (1.25Bn-cell equivalent): rank allocation at a 40,000-core budget",
		Headers: []string{"instance", "mesh", "ranks (Base-STC)", "ranks (Optimized-STC)"},
	}
	for i, inst := range insts {
		t9b.AddRow(inst.name, fmt.Sprintf("%dM", inst.mesh/1_000_000),
			d(base.Alloc.Cores[i]), d(opt.Alloc.Cores[i]))
	}
	t9b.AddRow("(idle past PE knees)", "-", d(base.Alloc.Unallocated), d(opt.Alloc.Unallocated))
	t9b.Notes = append(t9b.Notes,
		"paper allocation: MG-CFD 8M->100, 24M->100/163, 150M->167/1218, 300M->338/3357; SIMPIC->13428/32201")

	// 9a: per-instance prediction errors.
	t9a := &Table{
		ID:      "fig9a",
		Title:   "Per-instance model error, 20 pressure-solver steps equivalent",
		Headers: []string{"instance", "Base pred(s)", "Base meas(s)", "Base err", "Opt pred(s)", "Opt meas(s)", "Opt err"},
	}
	stats := func(res *EngineResult) (mean, worst float64) {
		for i := range insts {
			e := perfmodel.RelativeError(res.Predicted[i], res.Measured[i])
			mean += e
			if e > worst {
				worst = e
			}
		}
		return mean / float64(len(insts)), worst
	}
	for i, inst := range insts {
		eb := perfmodel.RelativeError(base.Predicted[i], base.Measured[i])
		eo := perfmodel.RelativeError(opt.Predicted[i], opt.Measured[i])
		t9a.AddRow(inst.name, f2(base.Predicted[i]), f2(base.Measured[i]), pct(eb),
			f2(opt.Predicted[i]), f2(opt.Measured[i]), pct(eo))
	}
	bMean, bWorst := stats(base)
	oMean, oWorst := stats(opt)
	t9a.Notes = append(t9a.Notes,
		fmt.Sprintf("Base-STC: mean error %.0f%%, worst %.0f%%; Optimized-STC: mean %.0f%%, worst %.0f%% (paper: mean 12%%, worst 25%%)",
			100*bMean, 100*bWorst, 100*oMean, 100*oWorst))

	// 9c: predicted vs measured speedup over one revolution. The paper
	// measures half a revolution and doubles it; the sampled coupled run
	// plays that role here.
	predSpeedup := perfmodel.PredictSpeedup(base.Alloc, opt.Alloc)
	measBase := scaledRun(base.Rep, base.FullSteps/2) * 2
	measOpt := scaledRun(opt.Rep, opt.FullSteps/2) * 2
	t9c := &Table{
		ID:      "fig9c",
		Title:   "Optimized-STC vs Base-STC speedup, 1 revolution (1,000 density steps)",
		Headers: []string{"quantity", "Base-STC", "Optimized-STC"},
	}
	t9c.AddRow("predicted run-time (s)", f2(base.Alloc.Predicted), f2(opt.Alloc.Predicted))
	t9c.AddRow("measured run-time (s)", f2(measBase), f2(measOpt))
	t9c.AddRow("prediction error", pct(perfmodel.RelativeError(base.Alloc.Predicted, measBase)),
		pct(perfmodel.RelativeError(opt.Alloc.Predicted, measOpt)))
	t9c.AddRow("coupling share of run-time", pct(base.Rep.CouplingShare), pct(opt.Rep.CouplingShare))
	measSpeedup := math.Inf(1)
	if measOpt > 0 {
		measSpeedup = measBase / measOpt
	}
	t9c.Notes = append(t9c.Notes,
		fmt.Sprintf("predicted speedup %.1fx, measured speedup %.1fx (paper: predicted ~6x, measured ~4x, errors <25%%)", predSpeedup, measSpeedup),
		"paper anchor: coupling overhead <0.5% of run-time with the tree+prefetch search")
	return []*Table{t9a, t9b, t9c}, nil
}

// Sensitivity reproduces the Section V-C bounds: best-case and worst-case
// speedups of the optimised pressure solver under varying assumptions.
// The run-time shares are extrapolated to the ~30,000-core operating
// point, where the spray's O(p) alltoallv has grown to dominate the base
// solver (spray ~52%, pressure field ~36%, well-scaling rest ~12%).
func (o Options) Sensitivity() (*Table, error) {
	const (
		shareSpray = 0.52
		shareField = 0.36
		shareRest  = 0.12
	)
	speedup := func(fieldFactor, sprayResidual, restFactor float64) float64 {
		return 1.0 / (shareField/fieldFactor + shareRest*restFactor + shareSpray*sprayResidual)
	}
	type scenario struct {
		name                          string
		fieldFactor, sprayRes, restFx float64
	}
	scenarios := []scenario{
		// Expected: 5x field kernels [48], async spray off the critical
		// path [32], rest untouched.
		{"expected (5x field, async spray)", 5.0, 0.04, 1.0},
		// Best: kernels hit the quoted peak and the AMG improvements also
		// accelerate the shared SpMV in the transport solves.
		{"best case (7.5x field, SpMV gains in transport)", 7.5 * 1.4, 0.02, 0.85},
		// Worst: particle optimisations land but the field only gains 30%
		// and its parallel efficiency does not improve.
		{"worst case (1.4x field, no field PE gain)", 1.4, 0.04, 1.0},
	}
	t := &Table{
		ID:      "sensitivity",
		Title:   "Section V-C sensitivity: pressure-solver speedup bounds at ~30k cores",
		Headers: []string{"scenario", "predicted speedup"},
	}
	for _, sc := range scenarios {
		t.AddRow(sc.name, f1(speedup(sc.fieldFactor, sc.sprayRes, sc.restFx))+"x")
	}
	t.Notes = append(t.Notes,
		"paper bounds: ~7.5x best case, 2.3x worst case, overall engine speedup 4-6x",
		"base shares at ~30k cores extrapolated from the Fig. 5 profile with the spray's O(p) redistribution growth")
	return t, nil
}
