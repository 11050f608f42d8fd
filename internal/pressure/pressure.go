package pressure

import (
	"fmt"
	"math"

	"cpx/internal/amg"
	"cpx/internal/cluster"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
	"cpx/internal/particle"
	"cpx/internal/scratch"
	"cpx/internal/sparse"
)

// Variant selects the Base or Optimized pressure solver.
type Variant int

// Solver variants.
const (
	Base Variant = iota
	Optimized
)

func (v Variant) String() string {
	if v == Optimized {
		return "Optimized"
	}
	return "Base"
}

// Message tags.
const (
	tagTransport = 60 // ..+4 for the individual fields
	tagPressure  = 80 // ..+3 for CG halos, async spray, setup and cycle level exchanges
)

// Per-cell work constants for the transport and source kernels
// (calibrated; see DESIGN.md §6).
const (
	transportFlopsPerCell  = 300.0 // per variable per sweep (incl. inner iterations)
	transportBytesPerCell  = 600.0
	transportSweeps        = 4      // halo-coupled sweeps per transport solve
	combustionFlopsPerCell = 3900.0 // EBU/PDF source evaluation, compute-bound
	combustionBytesPerCell = 480.0
	spmvFlopsPerCell       = 14.0 // 7-point stencil
	spmvBytesPerCell       = 90.0
)

// fieldKernelSpeedup is the measured SpMV/SpGEMM kernel speedup of the
// optimised AMG of [48] applied to the pressure-field work (Section IV-C
// applies 5x).
const fieldKernelSpeedup = 5.0

// dropletsPerCell scales the spray population to the mesh (paper: 7M
// droplets on 28M cells).
const dropletsPerCell float64 = 0.25

// PCG controls of the pressure correction. Production pressure
// corrections are solved to a loose inner tolerance within the outer
// PISO/SIMPLE loop, and the correctors cap the inner sweeps per step.
const (
	pcgTol     float64 = 1e-3
	pcgMaxIter int     = 40
)

// Config describes a pressure-solver instance.
type Config struct {
	MeshCells int64 // e.g. 28M, 84M, 380M
	Steps     int
	Variant   Variant
	Seed      int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MeshCells < 8 {
		return fmt.Errorf("pressure: mesh of %d cells too small", c.MeshCells)
	}
	if c.Steps < 1 {
		return fmt.Errorf("pressure: need at least one step")
	}
	return nil
}

// ScaleOpts bound per-rank working sets; zero disables capping.
type ScaleOpts struct {
	MaxCellsPerRank    int
	MaxDropletsPerRank int
	SampleSteps        int
}

// Production returns the capping used by large harness runs.
func Production() ScaleOpts {
	return ScaleOpts{MaxCellsPerRank: 1331, MaxDropletsPerRank: 16, SampleSteps: 2}
}

// Solver is the per-rank pressure-solver state.
type Solver struct {
	comm *mpi.Comm
	cfg  Config

	local *mesh.Local
	dims  mesh.Dims // simulated local cell dims
	scale float64   // true/sim cell ratio

	// Flow fields on the sim box (cell-centred): the x-velocity, which
	// feeds the pressure source, and the pressure correction. The other
	// transported fields are charged without state (stepMomentum).
	u, pcorr []float64

	// Pressure-correction machinery: the local 7-point operator, applied
	// as a stencil, and its AMG hierarchy. sys is pressureSystem{s}, made
	// once in New: made per step, it would box into the interface on the
	// hot path.
	grid  *sparse.Stencil3D
	hier  *amg.Hierarchy
	faces []faceCells
	sys   amg.CGSystem

	cloud *particle.System // nil in Optimized (async) mode

	// Per-step scratch, reused by every later step (DESIGN.md §5.13):
	// the received face values of the latest exchangeFaces (aligned with
	// faces), and, sized on first use, its one send buffer (refilled face
	// after face: SendVirtual copies before it returns), transportSweep's
	// next field and stepPressure's source and CG vectors.
	halo          [][]float64
	pack, next, b []float64
	one           [1]float64 // stepSpray's window-sync payload
	cg            amg.CGWork

	// LastIterations records the most recent PCG iteration count.
	LastIterations int
}

// faceCells is a block neighbour with the cells of the sim box on the
// face they share.
type faceCells struct {
	mesh.Neighbor
	idx []int
}

// Key and value of the read-only set-up state New takes from the run's
// memo (mpi.Shared): the local operator with its AMG hierarchy, which
// capped ranks would each rebuild bit for bit.
type (
	operatorKey struct {
		dims mesh.Dims
		opts amg.Options
	}
	operator struct {
		grid *sparse.Stencil3D
		hier *amg.Hierarchy // set up on grid, whose assembly is hier.Levels[0].A
		err  error
	}
)

// New builds the per-rank solver. Collective over c.
func New(c *mpi.Comm, cfg Config, sc ScaleOpts) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dc, err := mesh.SharedDecomp(c, mesh.CubeDims(cfg.MeshCells))
	if err != nil {
		return nil, err
	}
	if dc.Ranks() != c.Size() {
		return nil, fmt.Errorf("pressure: %d ranks do not decompose %d cells (best effort %d)",
			c.Size(), cfg.MeshCells, dc.Ranks())
	}
	s := &Solver{comm: c, cfg: cfg}
	s.local = dc.Local(c.Rank(), sc.MaxCellsPerRank)
	s.dims = s.local.Sim
	s.scale = s.local.Scale
	// Capped working sets use a cubic block so the local AMG sees the
	// same operator shape at every rank count: the distributed solve's
	// iteration growth then depends only on the block count, keeping the
	// strong-scaling curves smooth.
	if sc.MaxCellsPerRank > 0 && s.local.Sim != s.local.True {
		side := int(math.Cbrt(float64(sc.MaxCellsPerRank)))
		if side < 2 {
			side = 2
		}
		s.dims = mesh.Dims{NI: side, NJ: side, NK: side}
		s.scale = float64(s.local.True.Cells()) / float64(s.dims.Cells())
	}

	n := int(s.dims.Cells())
	s.u = make([]float64, n)
	s.pcorr = make([]float64, n)
	for i := range s.u {
		s.u[i] = 0.3 + 0.01*math.Sin(float64(i)*0.07+float64(cfg.Seed))
	}

	// Faces (cell lists) for halo-coupled kernels.
	for _, nb := range s.local.Neighbors {
		s.faces = append(s.faces, faceCells{nb, mesh.FaceIndices(s.dims, nb.Axis, nb.Dir)})
	}
	s.halo = make([][]float64, len(s.faces))

	// Pressure operator: 7-point Laplacian on the sim box, AMG hierarchy
	// per the variant, whose finest level applies the stencil too; the
	// rank cycles on it in a workspace of its own.
	opts := amg.DefaultOptions()
	if cfg.Variant == Optimized {
		opts = amg.OptimizedOptions()
	}
	opts.Seed = cfg.Seed
	var op operator
	s.region("pressure_field", func() {
		op = mpi.Shared(c, operatorKey{s.dims, opts}, func() operator {
			g := sparse.NewStencil3D(s.dims.NI, s.dims.NJ, s.dims.NK)
			h, err := amg.Setup(g, opts)
			return operator{g, h, err}
		})
	})
	if op.err != nil {
		return nil, op.err
	}
	s.grid, s.hier = op.grid, op.hier.Share()
	s.sys = pressureSystem{s}

	// Spray: synchronous cloud in Base, the particle component's static
	// strategy on the flow decomposition's grid; async task-based in
	// Optimized (the spray leaves the critical path; see stepSpray).
	if cfg.Variant == Base {
		cl, cerr := particle.New(c, particle.Config{
			Droplets:     int64(float64(cfg.MeshCells) * dropletsPerCell),
			ConeFraction: 0.25, Grid: dc.Grid, Seed: cfg.Seed,
		}, particle.ScaleOpts{MaxDropletsPerRank: sc.MaxDropletsPerRank})
		if cerr != nil {
			return nil, cerr
		}
		s.cloud = cl
	}
	return s, nil
}

// region runs fn inside a named trace region (no-op when profiling off).
func (s *Solver) region(name string, fn func()) {
	if p := s.comm.Profile(); p != nil {
		defer p.Scoped(name)()
	}
	fn()
}

// exchangeFaces trades the values of field at each face with the
// neighbours and returns the received buffers (aligned with s.faces).
// They are valid until the next exchange, which releases them to feed
// its own sends.
//
//perf:hotpath
func (s *Solver) exchangeFaces(field []float64, tag int) [][]float64 {
	for i, h := range s.halo {
		s.comm.Release(h)
		s.halo[i] = nil
	}
	for _, f := range s.faces {
		buf := scratch.Floats(&s.pack, len(f.idx))
		for i, c := range f.idx {
			buf[i] = field[c]
		}
		s.comm.SendVirtual(f.Rank, tag, buf, f.FaceCells*8)
	}
	for i, f := range s.faces {
		s.halo[i], _, _ = s.comm.Recv(f.Rank, tag)
	}
	return s.halo
}

// transportSweep smooths a field with a 7-point stencil using halo data —
// one sweep of a segregated transport solve.
//
//perf:hotpath
func (s *Solver) transportSweep(field []float64, tag int) {
	halo := s.exchangeFaces(field, tag)
	d := s.dims
	next := scratch.Floats(&s.next, len(field))
	sj, sk := d.NI, d.NI*d.NJ // index strides of j and k; i is fastest
	c := 0
	for k := 0; k < d.NK; k++ {
		for j := 0; j < d.NJ; j++ {
			for i := 0; i < d.NI; i++ {
				sum, cnt := 0.0, 0
				if i > 0 {
					sum += field[c-1]
					cnt++
				}
				if i < d.NI-1 {
					sum += field[c+1]
					cnt++
				}
				if j > 0 {
					sum += field[c-sj]
					cnt++
				}
				if j < d.NJ-1 {
					sum += field[c+sj]
					cnt++
				}
				if k > 0 {
					sum += field[c-sk]
					cnt++
				}
				if k < d.NK-1 {
					sum += field[c+sk]
					cnt++
				}
				if cnt > 0 {
					next[c] = 0.5*field[c] + 0.5*sum/float64(cnt)
				} else {
					next[c] = field[c]
				}
				c++
			}
		}
	}
	// Fold in the halo: face cells relax toward neighbour values.
	for fi, f := range s.faces {
		m := min(len(halo[fi]), len(f.idx))
		for i := 0; i < m; i++ {
			next[f.idx[i]] = 0.5*next[f.idx[i]] + 0.5*halo[fi][i]
		}
	}
	copy(field, next)
	s.chargeTransport(1)
}

// chargeTransport charges the transport sweep of vars variables over the
// rank's true box.
func (s *Solver) chargeTransport(vars float64) {
	cells := float64(len(s.u))
	s.comm.Compute(cluster.Work{
		Flops: vars * transportFlopsPerCell * cells * s.scale,
		Bytes: vars * transportBytesPerCell * cells * s.scale,
	})
}

// statelessSweep is the sweep of a transported field whose values nobody
// reads: the sweep's halo traffic as empty payloads of the true face
// size (a level-0 exchange of one value a face cell), then its work.
func (s *Solver) statelessSweep(tag int) {
	s.levelExchange(0, 8, tag)
	s.chargeTransport(1)
}

// stepMomentum advances the three velocity components. Only u feeds the
// pressure source, so v and w are swept without state (statelessSweep).
func (s *Solver) stepMomentum() {
	for sweep := 0; sweep < transportSweeps; sweep++ {
		s.transportSweep(s.u, tagTransport)
		s.statelessSweep(tagTransport + 1)
		s.statelessSweep(tagTransport + 2)
	}
}

// stepScalars advances turbulence and combustion scalars (k-eps, mixture
// fraction, enthalpy). No clock or output reads them, so none holds
// state: turbulence is swept by statelessSweep, and the remaining three
// scalars, which cost the same, charge their work and run their halo
// traffic as one exchange a sweep.
func (s *Solver) stepScalars() {
	for sweep := 0; sweep < transportSweeps; sweep++ {
		s.statelessSweep(tagTransport + 3)
	}
	for sweep := 0; sweep < transportSweeps; sweep++ {
		s.chargeTransport(3)
		s.levelExchange(0, 8, tagTransport+4)
	}
}

// stepCombustion charges the pointwise source terms (EBU / PDF models):
// compute-heavy, communication-free, scales perfectly. The scalars they
// would update hold no state (stepScalars).
func (s *Solver) stepCombustion() {
	cells := float64(len(s.u))
	s.comm.Compute(cluster.Work{
		Flops: combustionFlopsPerCell * cells * s.scale,
		Bytes: combustionBytesPerCell * cells * s.scale,
	})
}

// pressureMatVec applies the stitched global operator: local 7-point
// Laplacian plus symmetric -1 couplings across block faces.
func (s *Solver) pressureMatVec(x, y []float64) {
	halo := s.exchangeFaces(x, tagPressure)
	s.grid.MulVec(x, y)
	for fi, f := range s.faces {
		m := min(len(halo[fi]), len(f.idx))
		for i := 0; i < m; i++ {
			y[f.idx[i]] -= halo[fi][i]
		}
	}
	cells := float64(len(x))
	work := cluster.Work{
		Flops: spmvFlopsPerCell * cells * s.scale,
		Bytes: spmvBytesPerCell * cells * s.scale,
	}
	if s.cfg.Variant == Optimized {
		work = work.Scale(1 / fieldKernelSpeedup)
	}
	s.comm.Compute(work)
}

// levelExchange performs one halo exchange at hierarchy level l with the
// face sizes coarsened 4x per level (the per-level neighbour traffic of a
// distributed AMG cycle/setup). fieldsBytes is the per-cell payload.
func (s *Solver) levelExchange(l int, fieldBytes int, tag int) {
	for _, f := range s.faces {
		s.comm.SendVirtual(f.Rank, tag, nil, f.FaceCellsAt(l)*fieldBytes)
	}
	// Receive exactly one message per neighbour (explicit sources): the
	// same tag carries every level's exchange, so a count-based wildcard
	// batch could steal a faster neighbour's next-level message.
	for _, f := range s.faces {
		s.comm.Recv(f.Rank, tag)
	}
}

// amgSetup re-runs the AMG setup phase: the pressure-correction
// coefficients change every time-step, so the Galerkin products (SpGEMM)
// and the column renumbering are on the per-step critical path — the
// paper's profiling attributes the bulk of pressure-field compute to the
// multigrid cycles *and the setup phase*. Distributed RAP also exchanges
// matrix rows at every level.
func (s *Solver) amgSetup() {
	setup := s.hier.SetupWork.Scale(s.scale)
	if s.cfg.Variant == Optimized {
		setup = setup.Scale(1 / fieldKernelSpeedup)
	}
	s.comm.Compute(setup)
	for l := 0; l < s.hier.NumLevels()-1; l++ {
		// Matrix-row halo: ~7 nnz/row, 16 B per entry.
		s.levelExchange(l, 7*16, tagPressure+2)
	}
}

// precondition applies one AMG cycle to res into out, charging its work
// and the cycle's per-level halo traffic.
func (s *Solver) precondition(res, out []float64) {
	s.hier.Precondition(res, out)
	w := s.hier.CycleWork().Scale(s.scale)
	if s.cfg.Variant == Optimized {
		w = w.Scale(1 / fieldKernelSpeedup)
	}
	s.comm.Compute(w)
	// Distributed V-cycle: pre-smooth, post-smooth and residual each
	// exchange halos at every level.
	for l := 0; l < s.hier.NumLevels()-1; l++ {
		s.levelExchange(l, 3*8, tagPressure+3)
	}
}

// pressureSystem is the pressure-correction system of a rank: the
// stitched operator, the global inner product at the rank's scale and one
// AMG cycle with its per-level exchanges, each charging its own work.
type pressureSystem struct{ s *Solver }

func (p pressureSystem) MulVec(x, y []float64)       { p.s.pressureMatVec(x, y) }
func (p pressureSystem) Dot(a, b []float64) float64  { return sparse.Dot(p.s.comm, a, b, p.s.scale) }
func (p pressureSystem) Precondition(r, z []float64) { p.s.precondition(r, z) }

// stepPressure runs the pressure-correction solve: per-step AMG setup
// followed by AMG-preconditioned CG on the distributed operator, the
// paper's dominant cost (46% of run-time at 2,048 cores).
//
//perf:hotpath
func (s *Solver) stepPressure() {
	s.amgSetup()
	// Divergence source from the velocity field.
	b := scratch.Floats(&s.b, len(s.pcorr))
	for i := range b {
		b[i] = 1e-3 * (s.u[i] - 0.3)
	}
	x := s.pcorr
	clear(x)
	s.LastIterations = amg.CG(s.sys, b, x, pcgTol, pcgMaxIter, &s.cg).Iterations
	// Apply the correction to the velocity (projection).
	for i := range s.u {
		s.u[i] -= 0.1 * x[i]
	}
}

// stepSpray advances the fuel spray. Base: synchronous spatial
// partitioning (redistribution + census on the critical path).
// Optimized: async task-based — the balanced droplet work proceeds
// concurrently on dedicated resources and only a window synchronisation
// touches the solver ranks, matching the measured near-perfect scaling
// of the optimised spray [32].
func (s *Solver) stepSpray() {
	if s.cloud != nil {
		s.cloud.Step(0.01)
		return
	}
	// Async mode: one-sided window exchange with a neighbour stands in
	// for the MPI-3 shared-memory synchronisation; droplet work itself is
	// perfectly balanced across the spray communicator and overlaps the
	// flow solve, so only the (tiny) sync cost lands here.
	p, r := s.comm.Size(), s.comm.Rank()
	if p > 1 {
		partner := r ^ 1
		if partner < p {
			s.one[0] = float64(len(s.u))
			s.comm.SendVirtual(partner, tagPressure+1, s.one[:], 256)
			d, _, _ := s.comm.Recv(partner, tagPressure+1)
			s.comm.Release(d)
		}
	}
}

// Step advances the solver one time-step through the Fig. 2 sequence.
func (s *Solver) Step() {
	s.region("momentum", s.stepMomentum)
	s.region("scalars", s.stepScalars)
	s.region("combustion", s.stepCombustion)
	s.region("pressure_field", s.stepPressure)
	s.region("spray", s.stepSpray)
}

// Stats summarises a run.
type Stats struct {
	StepsRun      int
	ScaledSteps   int
	PCGIterations int // last step's count
	MeanVelocity  float64
	// SetupTime is the virtual time consumed before stepping began (max
	// over ranks); harnesses scale only the stepping phase when sampling.
	SetupTime float64
}

// Run executes the configured (or sampled) number of steps.
func Run(c *mpi.Comm, cfg Config, sc ScaleOpts) (*Stats, error) {
	s, err := New(c, cfg, sc)
	if err != nil {
		return nil, err
	}
	setup := c.AllreduceScalar(c.Clock(), mpi.Max)
	steps := cfg.Steps
	if sc.SampleSteps > 0 && sc.SampleSteps < steps {
		steps = sc.SampleSteps
	}
	for i := 0; i < steps; i++ {
		s.Step()
	}
	mean := 0.0
	for _, v := range s.u {
		mean += v
	}
	mean = c.AllreduceScalar(mean, mpi.Sum) / c.AllreduceScalar(float64(len(s.u)), mpi.Sum)
	return &Stats{StepsRun: steps, ScaledSteps: cfg.Steps, PCGIterations: s.LastIterations, MeanVelocity: mean, SetupTime: setup}, nil
}
