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

// fitMGCFD benchmarks the MG-CFD proxy standalone and fits its curve.
// The curve's base time corresponds to `steps` time-steps.
func (o Options) fitMGCFD(meshCells int64, steps int, coresList []int) (*perfmodel.Curve, error) {
	samples := make([]perfmodel.Sample, 0, len(coresList))
	for _, p := range coresList {
		o.logf("  fit mgcfd %dM @ %d", meshCells/1_000_000, p)
		rt, err := o.MGCFDRuntime(mgcfd.Config{MeshCells: meshCells, Steps: steps, Seed: 1}, p)
		if err != nil {
			return nil, err
		}
		samples = append(samples, perfmodel.Sample{Cores: p, Runtime: rt})
	}
	return perfmodel.FitCurve(samples)
}

// fitSimpic benchmarks a SIMPIC configuration standalone and fits its
// curve. The base time corresponds to the configuration's full Steps.
func (o Options) fitSimpic(cfg simpic.Config, coresList []int) (*perfmodel.Curve, error) {
	samples := make([]perfmodel.Sample, 0, len(coresList))
	for _, p := range coresList {
		o.logf("  fit simpic cells=%d ppc=%d @ %d", cfg.Cells, cfg.ParticlesPerCell, p)
		rt, err := o.SimpicRuntime(cfg, p)
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

// ---- Fig. 8: small coupled validation ---------------------------------------

// fig8DensitySteps is the full duration of the small validation scenario.
const fig8DensitySteps = 100

// Fig8 reproduces the small coupled test: two MG-CFD instances on the
// 150M Rotor37 mesh plus one SIMPIC unit standing in for a 28M-cell
// pressure solve, on a 5,000-core budget. The model allocates ranks and
// predicts per-instance run-times, the coupled mini-app simulation is
// executed at that allocation, and the prediction errors are reported.
func (o Options) Fig8() (*Table, error) {
	budget := 5000
	steps := fig8DensitySteps
	sample := coupler.SteadyExchangeEvery
	mgCores := []int{100, 200, 400, 800, 1600}
	spCores := []int{200, 800, 1600, 3200, 4800}
	if o.Quick {
		budget, steps, sample = 60, 8, 4
		mgCores = []int{8, 16, 24}
		spCores = []int{8, 16, 24}
	}
	mgMesh := int64(150_000_000)
	spMesh := int64(28_000_000)
	if o.Quick {
		mgMesh, spMesh = 40_000, 40_000
	}

	o.logf("fig8: fitting standalone curves")
	mgCurve, err := o.fitMGCFD(mgMesh, steps, mgCores)
	if err != nil {
		return nil, err
	}
	stc := simpic.BaseSTC(spMesh)
	if o.Quick {
		stc = simpic.Config{Cells: 4096, ParticlesPerCell: 20, Steps: 2 * steps}
	}
	spCurve, err := o.fitSimpic(stc, spCores)
	if err != nil {
		return nil, err
	}
	slidingPts := mesh.InterfaceCells(mesh.CubeDims(mgMesh), coupler.SlidingFraction)
	steadyPts := mesh.InterfaceCells(mesh.CubeDims(spMesh), coupler.SteadyFraction)
	cuSlide, err := o.cuCurve(slidingPts, coupler.SlidingPlane, coupler.TreePrefetch)
	if err != nil {
		return nil, err
	}
	cuSteady, err := o.cuCurve(steadyPts, coupler.SteadyState, coupler.TreePrefetch)
	if err != nil {
		return nil, err
	}

	// Model components. IterRatio converts each curve's base duration to
	// this scenario's: MG-CFD curves were fitted at `steps` steps (ratio
	// 1); SIMPIC's at its full Steps; CU curves per exchange.
	comps := []perfmodel.Component{
		{Name: "MG-CFD row 1 (150M)", Curve: mgCurve},
		{Name: "MG-CFD row 2 (150M)", Curve: mgCurve},
		// The SIMPIC curve's base time is its full configuration, which
		// stands for simpic.PressureStepsEquivalent pressure-solver steps;
		// the scenario runs 2 pressure steps per density step.
		{Name: "SIMPIC (28M equiv)", Curve: spCurve, IterRatio: float64(2*steps) / float64(simpic.PressureStepsEquivalent)},
		{Name: "CU rows 1-2 (sliding)", Curve: cuSlide, IsCU: true, IterRatio: float64(steps)},
		{Name: "CU row-combustor (steady)", Curve: cuSteady, IsCU: true, IterRatio: float64(steps) / float64(coupler.SteadyExchangeEvery)},
	}
	alloc, err := perfmodel.Allocate(comps, budget)
	if err != nil {
		return nil, err
	}
	o.logf("fig8 allocation:\n%s", alloc.String())

	// Execute the coupled simulation at the allocated ranks.
	sim := &coupler.Simulation{
		Instances: []coupler.InstanceSpec{
			{Name: comps[0].Name, Kind: coupler.KindMGCFD, MeshCells: mgMesh, Ranks: alloc.Cores[0], Seed: 1},
			{Name: comps[1].Name, Kind: coupler.KindMGCFD, MeshCells: mgMesh, Ranks: alloc.Cores[1], Seed: 2},
			{Name: comps[2].Name, Kind: coupler.KindSIMPIC, MeshCells: spMesh, Ranks: alloc.Cores[2], Simpic: &stc, Seed: 3},
		},
		Units: []coupler.UnitSpec{
			{Name: comps[3].Name, A: 0, B: 1, Kind: coupler.SlidingPlane, Points: slidingPts,
				Ranks: alloc.Cores[3], Search: coupler.TreePrefetch},
			{Name: comps[4].Name, A: 1, B: 2, Kind: coupler.SteadyState, Points: steadyPts,
				Ranks: alloc.Cores[4], Search: coupler.TreePrefetch, ExchangeEvery: coupler.SteadyExchangeEvery},
		},
		DensitySteps:    sample,
		RotationPerStep: 0.002,
		Scale:           coupler.ProductionScale(),
	}
	o.logf("fig8: running coupled simulation on %d ranks", sim.TotalRanks())
	rep, err := sim.Run(o.coupledConfig())
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("Small coupled validation (150M/28M) on a %d-core budget", budget),
		Headers: []string{"component", "ranks", "predicted(s)", "measured(s)", "err"},
	}
	var worst float64
	for i := range sim.Instances {
		measured := scaleSampled(rep.InstanceTime[i], rep.InstanceSetup[i], rep.DensitySteps, steps)
		e := perfmodel.RelativeError(alloc.Times[i], measured)
		if e > worst {
			worst = e
		}
		t.AddRow(comps[i].Name, d(alloc.Cores[i]), f2(alloc.Times[i]), f2(measured), pct(e))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max per-instance prediction error %.0f%% (paper: 18%%)", 100*worst),
		fmt.Sprintf("paper allocation for comparison: 331 + 331 MG-CFD, 4,253 SIMPIC, 63 + 22 CU ranks"),
		fmt.Sprintf("unallocated cores (past PE knees): %d", alloc.Unallocated))
	t.Notes = append(t.Notes, criticalPathNotes(rep)...)
	return t, nil
}

// criticalPathNotes renders a traced coupled report's critical-path
// attribution as table notes (empty when tracing was off).
func criticalPathNotes(rep *coupler.Report) []string {
	if rep.Critical == nil {
		return nil
	}
	notes := []string{fmt.Sprintf("critical path: %s carries %.2f s of %.2f s (%.0f%%); wait share %.0f%%",
		rep.CriticalComponents[0].Label, rep.CriticalComponents[0].Seconds,
		rep.Critical.Elapsed, 100*rep.CriticalComponents[0].Share,
		100*rep.Critical.ByKind()["wait"]/rep.Critical.Elapsed)}
	for _, ls := range rep.CriticalComponents[1:] {
		if ls.Share < 0.01 {
			break
		}
		notes = append(notes, fmt.Sprintf("critical path: %s %.2f s (%.0f%%)", ls.Label, ls.Seconds, 100*ls.Share))
	}
	return notes
}

// ---- Fig. 9: full-engine simulation -----------------------------------------

// engineInstance describes one row of the Fig. 9b instance table.
type engineInstance struct {
	name string
	kind coupler.SolverKind
	mesh int64
}

// engineInstances returns the 16-instance HPC-Combustor-HPT layout of
// Fig. 9b: one 8M inlet row, eleven 24M compressor rows, a 150M row, the
// 380M-equivalent combustor (SIMPIC), and the 150M + 300M turbine rows.
func engineInstances() []engineInstance {
	out := []engineInstance{{"row01 (8M)", coupler.KindMGCFD, 8_000_000}}
	for i := 2; i <= 12; i++ {
		out = append(out, engineInstance{fmt.Sprintf("row%02d (24M)", i), coupler.KindMGCFD, 24_000_000})
	}
	out = append(out,
		engineInstance{"row13 (150M)", coupler.KindMGCFD, 150_000_000},
		engineInstance{"combustor (380M equiv)", coupler.KindSIMPIC, 380_000_000},
		engineInstance{"row15 (150M)", coupler.KindMGCFD, 150_000_000},
		engineInstance{"row16 (300M)", coupler.KindMGCFD, 300_000_000},
	)
	return out
}

// EngineResult carries the model and measurement of one engine variant.
type EngineResult struct {
	Alloc      *perfmodel.Allocation
	Sim        *coupler.Simulation
	Rep        *coupler.Report
	FullSteps  int
	Measured   []float64 // per instance, scaled to FullSteps
	Predicted  []float64 // per component (instances first)
	TotalRanks int
}

// engineDensitySteps is the "1 revolution" duration (the paper: 1,000
// density-solver steps; we predict for that and measure a sampled run).
const engineDensitySteps = 1000

// RunEngine fits curves, allocates the budget, and executes the sampled
// coupled full-engine simulation for one STC variant.
func (o Options) RunEngine(optimized bool, budget int) (*EngineResult, error) {
	insts := engineInstances()
	fullSteps := engineDensitySteps
	sampleSteps := coupler.SteadyExchangeEvery
	minRanks := 100
	// Fit one curve per distinct MG-CFD mesh size.
	mgCores := map[int64][]int{
		8_000_000:   {64, 128, 384},
		24_000_000:  {64, 256, 1024},
		150_000_000: {100, 500, 2000},
		300_000_000: {100, 800, 4000},
	}
	if o.Quick {
		// Smoke-test geometry: meshes shrunk 1000x, tiny budget.
		fullSteps, minRanks = 40, 4
		mgCores = map[int64][]int{
			8_000:   {2, 4, 8},
			24_000:  {2, 4, 8},
			150_000: {4, 8, 16},
			300_000: {4, 8, 16},
		}
		for i := range insts {
			insts[i].mesh /= 1000
		}
	}
	o.logf("engine(optimized=%v): fitting curves", optimized)
	curves := map[int64]*perfmodel.Curve{}
	for _, sz := range order.SortedKeys(mgCores) {
		c, err := o.fitMGCFD(sz, fullSteps, mgCores[sz])
		if err != nil {
			return nil, err
		}
		curves[sz] = c
	}
	stc := simpic.BaseSTC(380_000_000)
	spCores := []int{1000, 6000, 16000}
	if optimized {
		stc = simpic.OptimizedSTC()
		// The Optimized-STC weight is calibrated against the *28M*
		// optimized pressure solver (Fig. 6b/c); the engine's combustor is
		// the 380M case, 13.6x larger.
		stc.ParticleWeight *= 380.0 / 28.0
		spCores = []int{1000, 12000, 32000}
	}
	if o.Quick {
		stc = simpic.Config{Cells: 2048, ParticlesPerCell: 10, Steps: 2 * fullSteps}
		if optimized {
			stc.ParticlesPerCell = 5
		}
		spCores = []int{4, 8, 16}
	}
	spCurve, err := o.fitSimpic(stc, spCores)
	if err != nil {
		return nil, err
	}

	// Components: instances then CUs. CU i couples instance i and i+1.
	var comps []perfmodel.Component
	simSpec := &coupler.Simulation{DensitySteps: sampleSteps, RotationPerStep: 0.002, Scale: coupler.ProductionScale()}
	for i, inst := range insts {
		cp := perfmodel.Component{Name: inst.name, MinRanks: minRanks}
		if inst.kind == coupler.KindSIMPIC {
			cp.Curve = spCurve
			// The combustor runs 2 pressure steps per density step; the
			// curve's base time represents simpic.PressureStepsEquivalent
			// pressure steps (the STC equivalence of Fig. 3).
			cp.IterRatio = float64(2*fullSteps) / float64(simpic.PressureStepsEquivalent)
		} else {
			cp.Curve = curves[inst.mesh]
			cp.IterRatio = 1 // curves fitted at fullSteps steps
		}
		comps = append(comps, cp)
		spec := coupler.InstanceSpec{Name: inst.name, Kind: inst.kind, MeshCells: inst.mesh, Seed: int64(i + 1)}
		if inst.kind == coupler.KindSIMPIC {
			cfg := stc
			spec.Simpic = &cfg
		}
		simSpec.Instances = append(simSpec.Instances, spec)
	}
	for i := 0; i+1 < len(insts); i++ {
		a, b := insts[i], insts[i+1]
		kind := coupler.SlidingPlane
		frac := coupler.SlidingFraction
		every := 1
		if a.kind == coupler.KindSIMPIC || b.kind == coupler.KindSIMPIC {
			kind = coupler.SteadyState
			frac = coupler.SteadyFraction
			every = coupler.SteadyExchangeEvery
		}
		small := a.mesh
		if b.mesh < small {
			small = b.mesh
		}
		points := mesh.InterfaceCells(mesh.CubeDims(small), frac)
		curve, err := o.cuCurve(points, kind, coupler.TreePrefetch)
		if err != nil {
			return nil, err
		}
		comps = append(comps, perfmodel.Component{
			Name:      fmt.Sprintf("CU %02d-%02d", i+1, i+2),
			Curve:     curve,
			IsCU:      true,
			IterRatio: float64(fullSteps) / float64(every),
			MinRanks:  1,
		})
		simSpec.Units = append(simSpec.Units, coupler.UnitSpec{
			Name: comps[len(comps)-1].Name, A: i, B: i + 1, Kind: kind,
			Points: points, Search: coupler.TreePrefetch, ExchangeEvery: every,
		})
	}

	alloc, err := perfmodel.Allocate(comps, budget)
	if err != nil {
		return nil, err
	}
	for i := range simSpec.Instances {
		simSpec.Instances[i].Ranks = alloc.Cores[i]
	}
	for u := range simSpec.Units {
		simSpec.Units[u].Ranks = alloc.Cores[len(insts)+u]
	}
	o.logf("engine(optimized=%v): running coupled sim on %d ranks", optimized, simSpec.TotalRanks())
	rep, err := simSpec.Run(o.coupledConfig())
	if err != nil {
		return nil, err
	}
	res := &EngineResult{
		Alloc: alloc, Sim: simSpec, Rep: rep,
		FullSteps:  fullSteps,
		TotalRanks: simSpec.TotalRanks(),
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
	for i, inst := range insts {
		key := standaloneKey{inst.kind, inst.mesh, alloc.Cores[i]}
		measured, ok := cache[key]
		if !ok {
			var err error
			if inst.kind == coupler.KindSIMPIC {
				o.logf("engine: standalone combustor @ %d ranks", alloc.Cores[i])
				rt, rerr := o.SimpicRuntime(stc, alloc.Cores[i])
				// The component represents IterRatio x the curve's base
				// configuration; scale the standalone measurement the same.
				measured, err = rt*comps[i].IterRatio, rerr
			} else {
				o.logf("engine: standalone %s @ %d ranks", inst.name, alloc.Cores[i])
				measured, err = o.MGCFDRuntime(mgcfd.Config{MeshCells: inst.mesh, Steps: fullSteps, Seed: 1}, alloc.Cores[i])
			}
			if err != nil {
				return nil, err
			}
			cache[key] = measured
		}
		res.Measured = append(res.Measured, measured)
		res.Predicted = append(res.Predicted, alloc.Times[i])
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
	for _, v := range []struct {
		name string
		rep  *coupler.Report
	}{{"Base-STC", base.Rep}, {"Optimized-STC", opt.Rep}} {
		for _, n := range criticalPathNotes(v.rep) {
			t9c.Notes = append(t9c.Notes, v.name+" "+n)
		}
	}
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
