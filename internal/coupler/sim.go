package coupler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"cpx/internal/fault"
	"cpx/internal/fem"
	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/particle"
	"cpx/internal/simpic"
	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

// femShellFor sizes a casing shell so its element count matches the
// requested mesh size, with a 10:1 circumference-to-length aspect.
func femShellFor(cells int64) fem.Config {
	if cells < 6 {
		cells = 6
	}
	nc := int(math.Sqrt(float64(cells) * 10))
	if nc < 3 {
		nc = 3
	}
	na := int(cells) / nc
	if na < 2 {
		na = 2
	}
	return fem.Config{NAxial: na, NCirc: nc, Steps: 1}
}

// SolverKind identifies the mini-app behind an instance.
type SolverKind int

// Solver kinds.
const (
	KindMGCFD    SolverKind = iota // density-solver proxy (compressor/turbine rows)
	KindSIMPIC                     // pressure-solver performance proxy (combustor)
	KindFEM                        // casing thermal FEM (the paper's stated extension)
	KindParticle                   // coupled Lagrangian particle component (MiniCombust-style particle ranks)
)

func (k SolverKind) String() string {
	switch k {
	case KindSIMPIC:
		return "SIMPIC"
	case KindFEM:
		return "FEM-thermal"
	case KindParticle:
		return "Particle"
	default:
		return "MG-CFD"
	}
}

// ParseSolverKind maps the scenario-file spelling of an instance kind
// (cpxsim -config, POST /v1/simulate) to its value, case-insensitively.
func ParseSolverKind(name string) (SolverKind, error) {
	switch strings.ToLower(name) {
	case "mgcfd":
		return KindMGCFD, nil
	case "simpic":
		return KindSIMPIC, nil
	case "fem":
		return KindFEM, nil
	case "particle":
		return KindParticle, nil
	}
	return 0, fmt.Errorf("unknown kind %q (want mgcfd, simpic, fem or particle)", name)
}

// InterfaceKind selects the coupling interaction type.
type InterfaceKind int

// Interface kinds (Section II-A).
const (
	// SlidingPlane: rotor/stator rows move relative to each other; the
	// mapping is recomputed every exchange. Interface ~0.42% of the mesh.
	SlidingPlane InterfaceKind = iota
	// SteadyState: density-pressure interaction; the mapping is computed
	// once. Interface ~5% of the mesh, exchanged every 20 iterations.
	SteadyState
)

// ParseInterfaceKind maps the scenario-file spelling of a coupling-unit
// kind to its value, case-insensitively; empty means sliding.
func ParseInterfaceKind(name string) (InterfaceKind, error) {
	switch strings.ToLower(name) {
	case "", "sliding":
		return SlidingPlane, nil
	case "steady":
		return SteadyState, nil
	}
	return 0, fmt.Errorf("unknown kind %q (want sliding or steady)", name)
}

// Interface fractions of the mesh (paper, Section II-A).
const (
	SlidingFraction = 0.0042
	SteadyFraction  = 0.05
)

// InstanceSpec describes one solver instance of the coupled simulation.
type InstanceSpec struct {
	Name      string
	Kind      SolverKind
	MeshCells int64 // mesh size (for SIMPIC: the pressure-solver equivalent)
	Ranks     int
	// Simpic overrides the SIMPIC configuration (Base vs Optimized STC).
	Simpic *simpic.Config
	// FEM overrides the casing thermal configuration; if nil, a shell is
	// sized so its element count matches MeshCells.
	FEM *fem.Config
	// Particle overrides the Lagrangian particle configuration (balancing
	// strategy, imbalance threshold, cone fraction). A zero Droplets field
	// defaults to MeshCells/4 — the paper's test-case ratio of 7M droplets
	// per 28M cells — and the instance Seed always wins, like the other
	// solver kinds.
	Particle *particle.Config
	Seed     int64
}

// stepsPerDensity is the instance's time-steps per density-solver step:
// SIMPIC 2 (the pressure solver's time-step is about half as long),
// every other kind 1.
func (is InstanceSpec) stepsPerDensity() int {
	if is.Kind == KindSIMPIC {
		return 2
	}
	return 1
}

// UnitSpec describes one coupling unit connecting two instances.
type UnitSpec struct {
	Name   string
	A, B   int // instance indices
	Kind   InterfaceKind
	Points int // true interface points per side
	Ranks  int
	Search Search
	// ExchangeEvery in density steps (defaults: sliding 1, steady
	// SteadyExchangeEvery).
	ExchangeEvery int
	// Overlap >= 1 enables the overlapping/composite-domain approach of
	// Section II-A ("overset"-style): a larger portion of each mesh is
	// exchanged and mapped, multiplying the effective interface size.
	// Zero or 1 disables.
	Overlap float64
}

// effectivePoints returns the true interface size including any
// composite-domain overlap.
func (us UnitSpec) effectivePoints() int {
	if us.Overlap > 1 {
		return int(float64(us.Points) * us.Overlap)
	}
	return us.Points
}

// SteadyExchangeEvery is the default exchange period, in density steps,
// of a steady-state unit, and the period of the units that couple a row
// to the combustor in Fig. 8 and Fig. 9, the longest in either. The
// harness's full-scale coupled runs sample exactly one period, so the
// sample holds the full run's exchange mix per step, which its
// extrapolation requires.
const SteadyExchangeEvery int = 20

func (us UnitSpec) exchangeEvery() int {
	if us.ExchangeEvery > 0 {
		return us.ExchangeEvery
	}
	if us.Kind == SteadyState {
		return SteadyExchangeEvery
	}
	return 1
}

// Scale bounds the working sets of a coupled run.
type Scale struct {
	MGCFD            mgcfd.ScaleOpts
	Simpic           simpic.ScaleOpts
	Particle         particle.ScaleOpts
	MaxPointsPerSide int // interface point cap per side per CU
}

// ProductionScale returns the capping used by the large harness runs
// (sized so 40,000-rank coupled runs fit in a few GB of host memory).
func ProductionScale() Scale {
	return Scale{
		MGCFD:            mgcfd.ScaleOpts{MaxCellsPerRank: 512},
		Simpic:           simpic.ScaleOpts{MaxCellsPerRank: 2048, MaxParticlesPerRank: 2048},
		Particle:         particle.ScaleOpts{MaxDropletsPerRank: 2048},
		MaxPointsPerSide: 1024,
	}
}

// Simulation is a full coupled configuration.
type Simulation struct {
	Instances    []InstanceSpec
	Units        []UnitSpec
	DensitySteps int // coupled duration in density-solver steps
	Scale        Scale
	// RotationPerStep is the sliding-plane rotation per density step.
	RotationPerStep float64
}

// TotalRanks returns the ranks the simulation occupies.
func (sim *Simulation) TotalRanks() int {
	total := 0
	for _, is := range sim.Instances {
		total += is.Ranks
	}
	for _, us := range sim.Units {
		total += us.Ranks
	}
	return total
}

// Validate checks the wiring.
func (sim *Simulation) Validate() error {
	if len(sim.Instances) == 0 {
		return fmt.Errorf("coupler: no instances")
	}
	if sim.DensitySteps < 1 {
		return fmt.Errorf("coupler: DensitySteps must be positive")
	}
	for i, is := range sim.Instances {
		if is.Ranks < 1 {
			return fmt.Errorf("coupler: instance %d (%s) has no ranks", i, is.Name)
		}
	}
	for u, us := range sim.Units {
		if us.A < 0 || us.A >= len(sim.Instances) || us.B < 0 || us.B >= len(sim.Instances) || us.A == us.B {
			return fmt.Errorf("coupler: unit %d (%s) connects invalid instances %d-%d", u, us.Name, us.A, us.B)
		}
		if us.Ranks < 1 {
			return fmt.Errorf("coupler: unit %d (%s) has no ranks", u, us.Name)
		}
		if us.Points < 1 {
			return fmt.Errorf("coupler: unit %d (%s) has no interface points", u, us.Name)
		}
	}
	return nil
}

// role describes what a world rank does.
type role struct {
	isUnit bool
	index  int // instance or unit index
	local  int // rank within the group
}

// roleOf resolves a world rank against the layout
// [inst0][inst1]...[unit0][unit1]...
func (sim *Simulation) roleOf(worldRank int) role {
	off := 0
	for i, is := range sim.Instances {
		if worldRank < off+is.Ranks {
			return role{false, i, worldRank - off}
		}
		off += is.Ranks
	}
	for u, us := range sim.Units {
		if worldRank < off+us.Ranks {
			return role{true, u, worldRank - off}
		}
		off += us.Ranks
	}
	panic(fmt.Sprintf("coupler: rank %d beyond layout (%d total)", worldRank, sim.TotalRanks()))
}

// ComponentName returns the name of the instance or coupling unit a
// world rank belongs to, for critical-path and trace attribution.
func (sim *Simulation) ComponentName(worldRank int) string {
	r := sim.roleOf(worldRank)
	if r.isUnit {
		return sim.Units[r.index].Name
	}
	return sim.Instances[r.index].Name
}

// groupRanks returns the world ranks of an instance or unit group.
func (sim *Simulation) groupRanks(isUnit bool, index int) (lo, hi int) {
	off := 0
	for i, is := range sim.Instances {
		if !isUnit && i == index {
			return off, off + is.Ranks
		}
		off += is.Ranks
	}
	for u, us := range sim.Units {
		if isUnit && u == index {
			return off, off + us.Ranks
		}
		off += us.Ranks
	}
	panic("coupler: unknown group")
}

// boundaryRanks is how many ranks of an instance handle interface traffic.
func boundaryRanks(instanceRanks int) int {
	if instanceRanks < 4 {
		return instanceRanks
	}
	if instanceRanks > 8 {
		return 8
	}
	return instanceRanks
}

// Report summarises a coupled run.
type Report struct {
	Elapsed       float64
	InstanceTime  []float64 // max rank clock per instance
	InstanceComp  []float64 // max rank compute time per instance
	InstanceSetup []float64 // max setup (pre-stepping) clock per instance
	UnitTime      []float64 // max rank clock per unit
	UnitComp      []float64 // max rank compute (busy) time per unit
	UnitSetup     []float64 // max setup (initialisation-mapping) clock per unit
	DensitySteps  int
	// CouplingShare is the max per-unit steady busy time (setup mapping
	// excluded — production couplers amortise it) over the elapsed time.
	CouplingShare float64
	// Stats is the raw run statistics; its Timelines and CommMatrix are
	// populated when the run was traced (mpi.Config.Trace).
	Stats *mpi.Stats
	// Critical is the virtual-time critical path of the coupled run and
	// CriticalComponents its attribution to instances/units, sorted by
	// descending share. Both are nil unless the run was traced.
	Critical           *trace.CriticalPath
	CriticalComponents []trace.LabelShare
	// RankDigests are per-world-rank FNV hashes over the exact bit
	// patterns of each rank's final solver/mapper state, used by the
	// differential resilience tests to assert bitwise restart equivalence.
	RankDigests []uint64
	// ParticleLoads holds, per instance, the aggregated load-balancing
	// accounting of KindParticle instances (droplet migrations, steals,
	// repartitions, final/peak imbalance); nil entries for other kinds.
	ParticleLoads []*particle.LoadReport
	// Metrics is the run's virtual-time metric series (nil unless
	// mpi.Config.Metrics was set), with Components filled by the
	// rank→instance/unit attribution. Present on failed runs too, so
	// partial artifacts keep their progress series.
	Metrics *telemetry.RunSeries
	// indexBuilds counts, per unit, the donor indices the run built on
	// the host (what the sharing tests assert on).
	indexBuilds []indexBuilds
}

// DominantComponent returns the instance/unit carrying the largest share
// of the critical path ("" when the run was not traced).
func (rep *Report) DominantComponent() string {
	if len(rep.CriticalComponents) == 0 {
		return ""
	}
	return rep.CriticalComponents[0].Label
}

// Run executes the coupled simulation and reports per-component times.
func (sim *Simulation) Run(cfg mpi.Config) (*Report, error) {
	return sim.run(cfg, nil)
}

// RunContext is Run with a context: when ctx is cancelled (deadline or
// explicit), the virtual-time runtime aborts, every rank goroutine
// unwinds through the mpi abort fan-out, and the error wraps ctx.Err()
// (so errors.Is(err, context.DeadlineExceeded) works as callers
// expect). This is the entry point the serving layer uses to give
// simulation jobs real per-request deadlines.
func (sim *Simulation) RunContext(ctx context.Context, cfg mpi.Config) (*Report, error) {
	cfg.Cancel = ctx.Done()
	rep, err := sim.run(cfg, nil)
	if errors.Is(err, mpi.ErrCanceled) {
		if cerr := ctx.Err(); cerr != nil {
			return rep, fmt.Errorf("coupler: run canceled: %w", cerr)
		}
	}
	return rep, err
}

// run is the common driver behind Run and RunResilient's attempts. On a
// failed run (abort, watchdog or fault-plan crash) it still returns a
// minimal Report carrying the partial Stats alongside the error, so
// callers can export partial traces of aborted runs.
func (sim *Simulation) run(cfg mpi.Config, rc *resilientCtx) (*Report, error) {
	if err := sim.Validate(); err != nil {
		return nil, err
	}
	// Per-rank setup clocks, final state digests and particle load
	// accounting, written once by each rank (disjoint slots).
	setupClocks := make([]float64, sim.TotalRanks())
	digests := make([]uint64, sim.TotalRanks())
	loads := make([]particle.RankLoad, sim.TotalRanks())
	indices := make([]*unitIndices, len(sim.Units))
	for u := range sim.Units {
		indices[u] = sim.newUnitIndices(u)
	}
	stats, err := mpi.Run(sim.TotalRanks(), cfg, func(c *mpi.Comm) error {
		return sim.rankMain(c, setupClocks, digests, loads, indices, rc)
	})
	if err != nil {
		if stats != nil {
			return &Report{
				Stats:        stats,
				Elapsed:      stats.Elapsed,
				DensitySteps: sim.DensitySteps,
				Metrics:      sim.componentMetrics(stats),
			}, err
		}
		return nil, err
	}
	rep := &Report{
		Stats:         stats,
		Elapsed:       stats.Elapsed,
		InstanceTime:  make([]float64, len(sim.Instances)),
		InstanceComp:  make([]float64, len(sim.Instances)),
		InstanceSetup: make([]float64, len(sim.Instances)),
		UnitTime:      make([]float64, len(sim.Units)),
		UnitComp:      make([]float64, len(sim.Units)),
		UnitSetup:     make([]float64, len(sim.Units)),
		DensitySteps:  sim.DensitySteps,
		RankDigests:   digests,
		ParticleLoads: make([]*particle.LoadReport, len(sim.Instances)),
		indexBuilds:   make([]indexBuilds, len(sim.Units)),
	}
	for u, ui := range indices {
		rep.indexBuilds[u] = ui.builds
	}
	for i, spec := range sim.Instances {
		if spec.Kind != KindParticle {
			continue
		}
		lo, hi := sim.groupRanks(false, i)
		lr := particle.AggregateLoads(sim.particleConfig(spec).Strategy.String(), loads[lo:hi])
		rep.ParticleLoads[i] = &lr
	}
	for i := range sim.Instances {
		lo, hi := sim.groupRanks(false, i)
		for r := lo; r < hi; r++ {
			rep.InstanceTime[i] = math.Max(rep.InstanceTime[i], stats.Clocks[r])
			rep.InstanceComp[i] = math.Max(rep.InstanceComp[i], stats.Compute[r])
			rep.InstanceSetup[i] = math.Max(rep.InstanceSetup[i], setupClocks[r])
		}
	}
	for u := range sim.Units {
		lo, hi := sim.groupRanks(true, u)
		for r := lo; r < hi; r++ {
			rep.UnitTime[u] = math.Max(rep.UnitTime[u], stats.Clocks[r])
			rep.UnitComp[u] = math.Max(rep.UnitComp[u], stats.Compute[r])
			rep.UnitSetup[u] = math.Max(rep.UnitSetup[u], setupClocks[r])
		}
		if rep.Elapsed > 0 {
			busy := rep.UnitComp[u] - rep.UnitSetup[u]
			if busy < 0 {
				busy = 0
			}
			rep.CouplingShare = math.Max(rep.CouplingShare, busy/rep.Elapsed)
		}
	}
	if stats.Timelines != nil {
		cp, cperr := stats.CriticalPath()
		if cperr != nil {
			return nil, fmt.Errorf("coupler: critical path: %w", cperr)
		}
		rep.Critical = cp
		rep.CriticalComponents = cp.ByLabel(sim.ComponentName)
	}
	rep.Metrics = sim.componentMetrics(stats)
	return rep, nil
}

// componentMetrics attributes a run's metric series to the simulation's
// instances and coupling units and returns it (nil when the run was not
// sampled).
func (sim *Simulation) componentMetrics(stats *mpi.Stats) *telemetry.RunSeries {
	if stats.Metrics == nil {
		return nil
	}
	stats.Metrics.Components = stats.Metrics.AggregateBy(sim.ComponentName)
	return stats.Metrics
}

// Message tags: each unit gets a tag block.
const (
	tagUnitBase   = 1000
	tagUnitStride = 16
	tagToCU_A     = 0 // A-side boundary data to CU
	tagToCU_B     = 1
	tagFromCU_A   = 2 // interpolated values back to A
	tagFromCU_B   = 3
)

func (sim *Simulation) unitTag(u, which int) int {
	return tagUnitBase + u*tagUnitStride + which
}

// simPoints returns the simulated (capped) point count for a unit side.
func (sim *Simulation) simPoints(us UnitSpec) int {
	n := us.Points
	if sim.Scale.MaxPointsPerSide > 0 && n > sim.Scale.MaxPointsPerSide {
		n = sim.Scale.MaxPointsPerSide
	}
	return n
}

// rankMain is the per-rank program of the coupled run.
func (sim *Simulation) rankMain(c *mpi.Comm, setupClocks []float64, digests []uint64, loads []particle.RankLoad, indices []*unitIndices, rc *resilientCtx) error {
	r := sim.roleOf(c.Rank())
	if r.isUnit {
		return sim.unitMain(c, r, setupClocks, digests, indices[r.index], rc)
	}
	return sim.instanceMain(c, r, setupClocks, digests, loads, rc)
}

// particleConfig resolves a KindParticle instance's effective particle
// configuration (overrides applied, droplet default from the mesh size,
// instance seed).
func (sim *Simulation) particleConfig(spec InstanceSpec) particle.Config {
	pc := particle.Config{}
	if spec.Particle != nil {
		pc = *spec.Particle
	}
	if pc.Droplets == 0 {
		// The paper's test-case ratio: 7M droplets per 28M cells.
		pc.Droplets = spec.MeshCells / 4
	}
	pc.Seed = spec.Seed
	return pc
}

// particleDT is the coupled particle time-step per density step.
const particleDT = 0.02

// groupComm derives the private communicator of a rank's group without
// any communication (the layout is contiguous by construction), so even
// 30,000-rank instances need no world-wide exchange or O(p) group lists.
func (sim *Simulation) groupComm(world *mpi.Comm, r role) *mpi.Comm {
	id := r.index
	if r.isUnit {
		id += len(sim.Instances)
	}
	lo, hi := sim.groupRanks(r.isUnit, r.index)
	return world.RangeComm(id, lo, hi-lo)
}

// instanceMain runs a solver instance rank.
func (sim *Simulation) instanceMain(world *mpi.Comm, r role, setupClocks []float64, digests []uint64, loads []particle.RankLoad, rc *resilientCtx) error {
	spec := sim.Instances[r.index]
	group := sim.groupComm(world, r)

	// Build the solver and its step; the solver's Walk exposes its
	// mutable state to the checkpoint/restart machinery (resilience.go).
	var s solver
	var step func() error
	var loadOf func() particle.RankLoad
	switch spec.Kind {
	case KindMGCFD:
		m, err := mgcfd.New(group, mgcfd.Config{
			MeshCells: spec.MeshCells, Steps: 1, Seed: spec.Seed,
		}, sim.Scale.MGCFD)
		if err != nil {
			return fmt.Errorf("instance %s: %w", spec.Name, err)
		}
		s, step = m, func() error { m.Step(); return nil }
	case KindSIMPIC:
		cfg := simpic.BaseSTC(spec.MeshCells)
		if spec.Simpic != nil {
			cfg = *spec.Simpic
		}
		cfg.Seed = spec.Seed
		p, err := simpic.New(group, cfg, sim.Scale.Simpic)
		if err != nil {
			return fmt.Errorf("instance %s: %w", spec.Name, err)
		}
		// Each coupled "pressure step" stands for StepsPerPressureStep
		// SIMPIC micro-steps under the STC equivalence (Fig. 3): run one
		// representative micro-step and stretch its cost to the block.
		spp := cfg.StepsPerPressureStep()
		s, step = p, func() error { p.StepBlock(1, spp); return nil }
	case KindFEM:
		cfg := femShellFor(spec.MeshCells)
		if spec.FEM != nil {
			cfg = *spec.FEM
		}
		cfg.Seed = spec.Seed
		if cfg.Steps == 0 {
			cfg.Steps = 1
		}
		f, err := fem.New(group, cfg)
		if err != nil {
			return fmt.Errorf("instance %s: %w", spec.Name, err)
		}
		s, step = f, func() error { _, err := f.Step(); return err }
	case KindParticle:
		p, err := particle.New(group, sim.particleConfig(spec), sim.Scale.Particle)
		if err != nil {
			return fmt.Errorf("instance %s: %w", spec.Name, err)
		}
		s, step, loadOf = p, func() error { p.Step(particleDT); return nil }, p.Load
	default:
		return fmt.Errorf("instance %s: unknown kind %d", spec.Name, spec.Kind)
	}
	setupClocks[world.Rank()] = world.Clock()

	start := 0
	if rc.resuming() {
		var err error
		if start, err = rc.restoreFrom(world, s.Walk); err != nil {
			return fmt.Errorf("instance %s: %w", spec.Name, err)
		}
	}

	// Units adjacent to this instance.
	type adj struct {
		unit  int
		side  byte // 'A' or 'B'
		every int
	}
	var adjacent []adj
	for u, us := range sim.Units {
		if us.A == r.index {
			adjacent = append(adjacent, adj{u, 'A', us.exchangeEvery()})
		}
		if us.B == r.index {
			adjacent = append(adjacent, adj{u, 'B', us.exchangeEvery()})
		}
	}
	nb := boundaryRanks(spec.Ranks)
	isBoundary := r.local < nb

	for d := start; d < sim.DensitySteps; d++ {
		for range spec.stepsPerDensity() {
			if err := step(); err != nil {
				return err
			}
		}
		for _, a := range adjacent {
			if (d+1)%a.every != 0 {
				continue
			}
			if isBoundary {
				sim.exchangeWithUnit(world, a.unit, a.side, r.local, nb, s)
			}
		}
		if rc.due(d+1, sim.DensitySteps) {
			rc.checkpoint(world, d+1, s.Walk, s.CheckpointBytes())
		}
	}
	digests[world.Rank()] = fault.Hash(s.Walk)
	if loadOf != nil {
		loads[world.Rank()] = loadOf()
	}
	return nil
}

// solver is what a coupled instance rank needs of its solver beside
// the step: the interface slice it sends and the values it absorbs, and
// its recoverable state and that state's true size for checkpoints.
type solver interface {
	BoundarySample(n int) []float64
	AbsorbBoundary(vals []float64)
	Walk(st *fault.State)
	CheckpointBytes() int
}

// exchangeWithUnit performs one boundary rank's part of a CU exchange:
// send this rank's interface slice to every CU rank, then receive the
// interpolated values coming back. BoundarySample hands over a slice the
// caller owns; once sent it joins the received payloads on the rank's
// free list.
//
//perf:hotpath
func (sim *Simulation) exchangeWithUnit(world *mpi.Comm, u int, side byte, localIdx, nb int, s solver) {
	us := sim.Units[u]
	cuLo, cuHi := sim.groupRanks(true, u)
	cuRanks := cuHi - cuLo
	simPts := sim.simPoints(us)
	slice := sliceOf(simPts, nb, localIdx)
	vals := s.BoundarySample(slice)

	toTag, fromTag := sim.unitTag(u, tagToCU_A), sim.unitTag(u, tagFromCU_A)
	if side == 'B' {
		toTag, fromTag = sim.unitTag(u, tagToCU_B), sim.unitTag(u, tagFromCU_B)
	}
	// True bytes: this rank's share of the true interface (5 fields),
	// spread across CU ranks with a 2x donor-overlap factor.
	trueSlice := float64(us.effectivePoints()) / float64(nb)
	perCUBytes := int(trueSlice * 5 * 8 * 2 / float64(cuRanks))
	for cu := cuLo; cu < cuHi; cu++ {
		world.SendVirtual(cu, toTag, vals, perCUBytes)
	}
	world.Release(vals)
	// Receive interpolated values from the CU ranks that own targets
	// mapping to this boundary slice.
	for cu := cuLo; cu < cuHi; cu++ {
		if cuTargetOwner(cu-cuLo, cuRanks, nb) == localIdx {
			d, _, _ := world.Recv(cu, fromTag)
			s.AbsorbBoundary(d)
			world.Release(d)
		}
	}
}

// cuTargetOwner maps CU rank j to the boundary rank receiving its
// computed targets.
func cuTargetOwner(j, cuRanks, nb int) int { return j % nb }

// sliceOf splits n points across nb holders; holder i gets the remainder
// spread evenly.
func sliceOf(n, nb, i int) int {
	return (i+1)*n/nb - i*n/nb
}

// unitIndices is the donor-search state of one coupling unit for one run,
// shared by the unit's CU ranks. Every CU rank searches the same two
// point sets, so the geometry and the indices over it are a pure function
// of (unit, exchange step): they are computed once on the host and read
// by all ranks, while each rank is still charged its own MapWork in
// virtual time. The value is private to one run call, so a RunResilient
// replay starts from a fresh one.
type unitIndices struct {
	ptsA, ptsB []Point2
	// Static indices: side B never moves; side A unrotated serves the
	// setup mapping and steady-state units.
	idxA, idxB *donorIndex

	us       UnitSpec
	rotation float64 // sliding-plane rotation per density step

	mu      sync.Mutex
	rotated map[int]*rotatedIndex // live side-A indices by density step
	builds  indexBuilds
}

// rotatedIndex is side A after one exchange's rotation, built by the
// first CU rank to ask for it and dropped when the last has released it.
type rotatedIndex struct {
	once sync.Once
	idx  *donorIndex
	left int // CU ranks yet to release
}

// indexBuilds counts the rotated side-A indices one unit built during a
// run; the static indices are built exactly once, in newUnitIndices.
type indexBuilds struct {
	rotated  int // one per sliding-plane exchange
	peakLive int // most alive at once
}

func (sim *Simulation) newUnitIndices(u int) *unitIndices {
	us := sim.Units[u]
	simPts := sim.simPoints(us)
	// Interface geometry: both sides jittered annuli (distinct seeds).
	ptsA := AnnulusPoints(simPts, int64(u)*2+1)
	ptsB := AnnulusPoints(simPts, int64(u)*2+2)
	return &unitIndices{
		ptsA: ptsA, ptsB: ptsB,
		idxA:     newDonorIndex(ptsA, us.Search),
		idxB:     newDonorIndex(ptsB, us.Search),
		us:       us,
		rotation: sim.RotationPerStep,
		rotated:  make(map[int]*rotatedIndex),
	}
}

// donorsA returns side A's index for the exchange that ends density step
// d: rotated to that step on a sliding plane, static otherwise. Each CU
// rank pairs it with one release(d).
func (ui *unitIndices) donorsA(d int) *donorIndex {
	if ui.us.Kind != SlidingPlane {
		return ui.idxA
	}
	ui.mu.Lock()
	e := ui.rotated[d]
	if e == nil {
		e = &rotatedIndex{left: ui.us.Ranks}
		ui.rotated[d] = e
		ui.builds.rotated++
		if n := len(ui.rotated); n > ui.builds.peakLive {
			ui.builds.peakLive = n
		}
	}
	ui.mu.Unlock()
	// Built outside the lock: ranks at another step need not wait.
	e.once.Do(func() {
		e.idx = newDonorIndex(Rotate(ui.ptsA, ui.rotation*float64(d+1)), ui.us.Search)
	})
	return e.idx
}

// release tells the unit this CU rank has finished with donorsA(d); the
// last of the unit's ranks to do so frees the index.
func (ui *unitIndices) release(d int) {
	if ui.us.Kind != SlidingPlane {
		return
	}
	ui.mu.Lock()
	if e := ui.rotated[d]; e != nil {
		if e.left--; e.left == 0 {
			delete(ui.rotated, d)
		}
	}
	ui.mu.Unlock()
}

// unitMain runs one coupling-unit rank: per exchange event, gather both
// sides' interface data, compute/refresh the mapping, interpolate, and
// return results.
func (sim *Simulation) unitMain(world *mpi.Comm, r role, setupClocks []float64, digests []uint64, ui *unitIndices, rc *resilientCtx) error {
	us := sim.Units[r.index]

	simPts := sim.simPoints(us)
	nbA := boundaryRanks(sim.Instances[us.A].Ranks)
	nbB := boundaryRanks(sim.Instances[us.B].Ranks)
	cuLo, cuHi := sim.groupRanks(true, r.index)
	cuRanks := cuHi - cuLo

	ptsA, ptsB := ui.ptsA, ui.ptsB
	mapAB := &Mapper{Kind: us.Search} // donors A -> targets B
	mapBA := &Mapper{Kind: us.Search} // donors B -> targets A
	every := us.exchangeEvery()
	firstMapping := true
	// The two sides' gathered interface values, refilled every exchange.
	valsA := make([]float64, 0, simPts)
	valsB := make([]float64, 0, simPts)

	// This CU rank owns a share of the targets on each side.
	tLoB, tHiB := shareOf(simPts, cuRanks, r.local)
	tLoA, tHiA := shareOf(simPts, cuRanks, r.local)
	scalePts := float64(us.effectivePoints()) / float64(simPts)

	// Initialisation exchange: production couplers build the first donor
	// mapping during setup so the expensive cold search (all prefetch
	// misses, full tree build) is off the stepping critical path.
	if us.Search == TreePrefetch {
		mapAB.mapIndexed(ptsB[tLoB:tHiB], ui.idxA)
		world.Compute(mapAB.MapWork(float64(tHiB-tLoB)*scalePts, float64(us.effectivePoints()), true))
		mapBA.mapIndexed(ptsA[tLoA:tHiA], ui.idxB)
		world.Compute(mapBA.MapWork(float64(tHiA-tLoA)*scalePts, float64(us.effectivePoints()), true))
	}
	setupClocks[world.Rank()] = world.Clock()

	// The rank's recoverable state: both mappers, each deep-copied whole
	// (resilience.go), and whether the first mapping is still to come.
	walk := func(st *fault.State) {
		fault.Keep(st, mapAB.checkpoint, mapAB.restore)
		fault.Keep(st, mapBA.checkpoint, mapBA.restore)
		fault.Keep(st, func() bool { return firstMapping }, func(f bool) { firstMapping = f })
	}
	start := 0
	if rc.resuming() {
		var err error
		if start, err = rc.restoreFrom(world, walk); err != nil {
			return fmt.Errorf("unit %s: %w", us.Name, err)
		}
	}

	for d := start; d < sim.DensitySteps; d++ {
		if (d+1)%every != 0 {
			if rc.due(d+1, sim.DensitySteps) {
				rc.checkpoint(world, d+1, walk, cuCheckpointBytes(us, cuRanks))
			}
			continue
		}
		// Gather both sides' values (one message per boundary rank).
		valsA = gatherSide(world, sim, us.A, nbA, sim.unitTag(r.index, tagToCU_A), valsA[:0])
		valsB = gatherSide(world, sim, us.B, nbB, sim.unitTag(r.index, tagToCU_B), valsB[:0])

		// Sliding planes rotate side A each exchange; the mapping must be
		// recomputed. Steady state maps once.
		rebuild := us.Kind == SlidingPlane || firstMapping
		if rebuild {
			// Host work on the shared indices first, then this rank's
			// own virtual charges for it.
			donorsA := ui.donorsA(d)
			mapAB.last = mapAB.mapIndexed(ptsB[tLoB:tHiB], donorsA)
			mapBA.last = mapBA.mapIndexed(donorsA.pts[tLoA:tHiA], ui.idxB)
			ui.release(d)
			world.Compute(mapAB.MapWork(float64(tHiB-tLoB)*scalePts, float64(us.effectivePoints()), true))
			world.Compute(mapBA.MapWork(float64(tHiA-tLoA)*scalePts, float64(us.effectivePoints()), true))
			firstMapping = false
		}
		// Interpolate and return.
		outB := mapAB.last.Interpolate(valsA)
		world.Compute(InterpolateWork(float64(tHiB-tLoB) * scalePts))
		outA := mapBA.last.Interpolate(valsB)
		world.Compute(InterpolateWork(float64(tHiA-tLoA) * scalePts))

		dstB := sim.instanceWorldRank(us.B, cuTargetOwner(r.local, cuRanks, nbB))
		dstA := sim.instanceWorldRank(us.A, cuTargetOwner(r.local, cuRanks, nbA))
		trueOut := float64(us.effectivePoints()) / float64(cuRanks) * 5 * 8
		world.SendVirtual(dstB, sim.unitTag(r.index, tagFromCU_B), outB, int(trueOut))
		world.SendVirtual(dstA, sim.unitTag(r.index, tagFromCU_A), outA, int(trueOut))
		world.Release(outB)
		world.Release(outA)
		if rc.due(d+1, sim.DensitySteps) {
			rc.checkpoint(world, d+1, walk, cuCheckpointBytes(us, cuRanks))
		}
	}
	d := fault.NewDigest()
	mapAB.digest(d)
	mapBA.digest(d)
	if firstMapping {
		d.Int(1)
	}
	digests[world.Rank()] = d.Sum64()
	return nil
}

// instanceWorldRank returns the world rank of an instance's local rank.
func (sim *Simulation) instanceWorldRank(instance, local int) int {
	lo, _ := sim.groupRanks(false, instance)
	return lo + local
}

// shareOf splits n targets across k owners; owner i gets [lo, hi).
func shareOf(n, k, i int) (lo, hi int) { return i * n / k, (i + 1) * n / k }

// gatherSide receives the boundary slices of one instance side and
// appends them to out (the unit rank's buffer for that side, kept across
// exchanges) in boundary-rank order.
//
//perf:hotpath
func gatherSide(world *mpi.Comm, sim *Simulation, instance, nb, tag int, out []float64) []float64 {
	for i := 0; i < nb; i++ {
		src := sim.instanceWorldRank(instance, i)
		d, _, _ := world.Recv(src, tag)
		out = append(out, d...) //lint:allow hotalloc grows on the first exchange to the interface size, then refilled
		world.Release(d)
	}
	return out
}
