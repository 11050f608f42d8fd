package simpic

import (
	"fmt"
	"math"
	"math/rand"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/scratch"
)

// Message tags used by a SIMPIC run.
const (
	tagGhost = 10
	tagRhoR  = 12
	tagMigL  = 13
	tagMigR  = 14
)

// Per-particle work constants (calibrated; see DESIGN.md §6). A PIC step
// streams each particle several times (deposit, gather, push) with
// indirect grid accesses.
// Calibrated so the Base-STC totals land on the pressure-solver proxy's
// run-times (Fig. 3/4): one SIMPIC step must cost ~1/5000th of a
// production pressure step (50,000 SIMPIC steps stand in for 10 pressure
// steps).
const (
	particleFlopsPerStep = 3.0
	particleBytesPerStep = 4.2
)

// Sim is the per-rank state of a SIMPIC run.
type Sim struct {
	comm *mpi.Comm
	cfg  Config

	// Simulated (allocated) extents vs true extents.
	cells     int // true global cells
	simCells  int // allocated cells on this rank
	trueCells int // true cells on this rank
	cellLo    int // first true cell owned
	dx        float64
	dt        float64

	// Particle state (structure-of-arrays).
	px, pv []float64

	// Scaling factors: true work per simulated unit.
	cellScale float64
	partScale float64
	trueParts float64 // true particles this rank represents

	field   *fieldSolver
	rng     *rand.Rand
	stepNum int

	// Cached field for sub-cycled solves (FieldEvery > 1). Between
	// restores cachePhi is the field solver's own phi.
	cachePhi         []float64
	cacheGL, cacheGR float64

	// Per-step scratch, reused by every later step (DESIGN.md §5.13):
	// depositCharge's charge window, Poisson right-hand side and its
	// one-value boundary message, pushParticles' E field, and migrate's
	// two send buffers.
	rho, rhs, efield []float64
	edge             [1]float64
	migL, migR       []float64

	// Diagnostics.
	Absorbed int64
}

// Stats summarises a completed SIMPIC run on one rank.
type Stats struct {
	StepsRun      int
	ScaledSteps   int // the full-configuration step count represented
	FinalParts    int
	KineticEnergy float64
	// SetupTime is the virtual time consumed before stepping began (max
	// over ranks). Harnesses that sample a subset of the steps must scale
	// only the stepping phase, not the one-off setup — the paper observes
	// the same amortisation effect in real SIMPIC (Section V-C).
	SetupTime float64
}

// New builds the per-rank simulation state. Collective over c.
func New(c *mpi.Comm, cfg Config, sc ScaleOpts) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, r := c.Size(), c.Rank()
	if cfg.Cells < 2*p {
		return nil, fmt.Errorf("simpic: %d cells over %d ranks leaves under 2 cells/rank", cfg.Cells, p)
	}
	s := &Sim{comm: c, cfg: cfg, cells: cfg.Cells}
	s.cellLo = r * cfg.Cells / p
	cellHi := (r + 1) * cfg.Cells / p
	s.trueCells = cellHi - s.cellLo
	s.simCells = s.trueCells
	if sc.MaxCellsPerRank > 0 && s.simCells > sc.MaxCellsPerRank {
		s.simCells = sc.MaxCellsPerRank
	}
	s.cellScale = float64(s.trueCells) / float64(s.simCells)
	s.dx = cfg.Length / float64(cfg.Cells)
	s.dt = cfg.DtScale * s.dx / cfg.VTherm

	simParts := s.simCells * cfg.ParticlesPerCell
	if sc.MaxParticlesPerRank > 0 && simParts > sc.MaxParticlesPerRank {
		simParts = sc.MaxParticlesPerRank
	}
	if simParts < 1 {
		simParts = 1
	}
	s.trueParts = float64(s.trueCells) * float64(cfg.ParticlesPerCell)
	s.partScale = s.trueParts / float64(simParts)

	// The field solver works on the *simulated* grid: conceptually each
	// rank simulates a representative slice; ghost/interface traffic has
	// true (small) sizes anyway.
	fsolver, err := newFieldSolver(c, cfg.Cells, s.cellScale, tagGhost)
	if err != nil {
		return nil, err
	}
	s.field = fsolver

	// Load particles uniformly over the *owned true* slab with thermal
	// velocities, deterministically per rank.
	s.rng = rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
	slabLo := float64(s.cellLo) * s.dx
	slabW := float64(s.trueCells) * s.dx
	// Headroom of an eighth for net arrivals: the few steps of a sampled
	// or coupled block append migrants without regrowing, and a
	// population that drifts past it grows by amortised append.
	s.px = make([]float64, simParts, simParts+simParts/8+16)
	s.pv = make([]float64, simParts, cap(s.px))
	for i := range s.px {
		s.px[i] = slabLo + s.rng.Float64()*slabW
		s.pv[i] = cfg.VTherm * s.rng.NormFloat64()
	}
	// Loading cost: one pass over the true particle population.
	c.Compute(cluster.Work{Flops: 8 * s.trueParts, Bytes: 32 * s.trueParts})
	return s, nil
}

// slabBounds returns this rank's spatial ownership [lo, hi).
func (s *Sim) slabBounds() (lo, hi float64) {
	p, r := s.comm.Size(), s.comm.Rank()
	return float64(r*s.cells/p) * s.dx, float64((r+1)*s.cells/p) * s.dx
}

// depositCharge accumulates CIC charge density on the owned nodes
// [field.lo, field.hi) and resolves shared boundary nodes with the
// neighbours. The returned slice is the Poisson RHS dx^2*rho at owned
// nodes, weighted so the scaled-down particle set represents the true
// charge; it is the Sim's own and lasts until the next deposit.
//
//perf:hotpath
func (s *Sim) depositCharge() []float64 {
	// Particles of this rank only touch nodes [cellLo, cellHi]; the
	// window is exactly that (never the global grid).
	p, r := s.comm.Size(), s.comm.Rank()
	cellHi := (r + 1) * s.cells / p
	rho := scratch.Floats(&s.rho, s.trueCells+1) // window node i -> global cellLo+i
	clear(rho)
	invDx := 1.0 / s.dx
	w := s.partScale / float64(s.cfg.ParticlesPerCell) // unit mean density
	for i := range s.px {
		xc := s.px[i] * invDx
		j := int(xc)
		if j < s.cellLo {
			j = s.cellLo
		}
		if j >= cellHi {
			j = cellHi - 1
		}
		frac := xc - float64(j)
		rho[j-s.cellLo] += (1 - frac) * w
		rho[j-s.cellLo+1] += frac * w
	}
	s.chargeParticleWork(0.4) // deposit is ~40% of the per-step particle work
	// The slab-boundary node cellHi is owned by the right neighbour: send
	// our partial sum right, and fold the left neighbour's into our first
	// node.
	if r < p-1 {
		s.edge[0] = rho[s.trueCells]
		s.comm.Send(r+1, tagRhoR, s.edge[:])
	}
	if r > 0 {
		d, _, _ := s.comm.Recv(r-1, tagRhoR)
		rho[0] += d[0]
		s.comm.Release(d)
	}
	// Poisson RHS at the owned nodes [field.lo, field.hi).
	f := scratch.Floats(&s.rhs, s.field.ownedNodes())
	dx2 := s.dx * s.dx
	for i := range f {
		f[i] = dx2 * rho[s.field.lo-s.cellLo+i]
	}
	return f
}

// pushParticles gathers E to the particles and advances them leapfrog,
// then migrates the ones that left the slab. phi spans the owned nodes,
// with ghost potentials for the stencil ends.
//
//perf:hotpath
func (s *Sim) pushParticles(phi []float64, ghostL, ghostR float64) {
	loNode := s.field.lo
	nOwned := len(phi)
	// Electric field at owned nodes: E = -dphi/dx (central difference).
	e := scratch.Floats(&s.efield, nOwned)
	inv2dx := 1.0 / (2 * s.dx)
	for i := 0; i < nOwned; i++ {
		var pm, pp float64
		if i == 0 {
			pm = ghostL
		} else {
			pm = phi[i-1]
		}
		if i == nOwned-1 {
			pp = ghostR
		} else {
			pp = phi[i+1]
		}
		e[i] = (pm - pp) * inv2dx
	}
	// Gather+push. Charge/mass = -1 (electrons) in scaled units.
	const qm = -1.0
	invDx := 1.0 / s.dx
	for i := range s.px {
		xc := s.px[i] * invDx
		j := int(xc)
		frac := xc - float64(j)
		// Node indices j and j+1 relative to owned range; clamp into the
		// owned+ghost window (particles are inside the slab).
		var e0, e1 float64
		k := j - loNode
		switch {
		case k < 0:
			e0, e1 = e[0], e[0]
		case k >= nOwned-1:
			e0, e1 = e[nOwned-1], e[nOwned-1]
		default:
			e0, e1 = e[k], e[k+1]
		}
		ef := (1-frac)*e0 + frac*e1
		s.pv[i] += qm * ef * s.dt
		s.px[i] += s.pv[i] * s.dt
	}
	s.chargeParticleWork(0.6) // gather+push is ~60% of per-step particle work
	s.migrate()
}

// chargeParticleWork charges `fraction` of one full step of per-particle
// work, scaled to the true particle population and weight.
func (s *Sim) chargeParticleWork(fraction float64) {
	w := s.cfg.ParticleWeight
	if w == 0 {
		w = 1
	}
	s.comm.Compute(cluster.Work{
		Flops: particleFlopsPerStep * fraction * s.trueParts * w,
		Bytes: particleBytesPerStep * fraction * s.trueParts * w,
	})
}

// migrate exchanges particles that crossed slab boundaries and reflects
// at the domain walls. Stayers are compacted in place in their old
// order and arrivals appended behind them (the right neighbour's, then
// the left's), so the particle order, and with it StateDigest, is what
// rebuilding the arrays from empty would give.
//
//perf:hotpath
func (s *Sim) migrate() {
	p, r := s.comm.Size(), s.comm.Rank()
	lo, hi := s.slabBounds()
	left, right := s.migL[:0], s.migR[:0]
	keep := 0
	for i := range s.px {
		x, v := s.px[i], s.pv[i]
		// Reflect at the global walls.
		if x < 0 {
			x, v = -x, -v
		}
		if x > s.cfg.Length {
			x, v = 2*s.cfg.Length-x, -v
		}
		switch {
		case x < lo && r > 0:
			left = append(left, x, v) //lint:allow hotalloc amortised growth of a send buffer kept on the Sim
		case x >= hi && r < p-1:
			right = append(right, x, v) //lint:allow hotalloc amortised growth of a send buffer kept on the Sim
		default:
			s.px[keep], s.pv[keep] = x, v
			keep++
		}
	}
	s.px, s.pv = s.px[:keep], s.pv[:keep]
	s.migL, s.migR = left, right
	if p > 1 {
		// Exchange with both neighbours (empty messages keep the pattern
		// uniform). Virtual sizes reflect the true migrant population.
		if r > 0 {
			s.comm.SendVirtual(r-1, tagMigL, left, s.migrantBytes(left))
		}
		if r < p-1 {
			s.comm.SendVirtual(r+1, tagMigR, right, s.migrantBytes(right))
		}
		if r < p-1 {
			d, _, _ := s.comm.Recv(r+1, tagMigL)
			s.appendPairs(d)
			s.comm.Release(d)
		}
		if r > 0 {
			d, _, _ := s.comm.Recv(r-1, tagMigR)
			s.appendPairs(d)
			s.comm.Release(d)
		}
	}
}

// migrantBytes is the wire size of the true migrant population a send
// buffer of (x, v) pairs represents.
func (s *Sim) migrantBytes(buf []float64) int {
	return int(float64(len(buf)) * 8 * s.partScale)
}

// appendPairs adds received (x, v) pairs to the particle arrays.
//
//perf:hotpath
func (s *Sim) appendPairs(pairs []float64) {
	for i := 0; i+1 < len(pairs); i += 2 {
		s.px = append(s.px, pairs[i])   //lint:allow hotalloc within New's headroom; grows only if arrivals outrun it
		s.pv = append(s.pv, pairs[i+1]) //lint:allow hotalloc within New's headroom; grows only if arrivals outrun it
	}
}

// diagEvery is the diagnostics interval in steps (energy reductions).
const diagEvery = 10

// Step advances the simulation one time-step. The field is re-solved
// every FieldEvery steps; in between the cached field pushes particles.
func (s *Sim) Step() {
	every := s.cfg.FieldEvery
	if every < 1 {
		every = 1
	}
	if s.cachePhi == nil || s.stepNum%every == 0 {
		f := s.depositCharge()
		s.cachePhi, s.cacheGL, s.cacheGR = s.field.Solve(f)
	}
	s.pushParticles(s.cachePhi, s.cacheGL, s.cacheGR)
	// Periodic diagnostics (field/kinetic energy), as in SIMPIC proper:
	// a global reduction on the critical path every few steps.
	s.stepNum++
	if s.stepNum%diagEvery == 0 {
		ke := 0.0
		for _, v := range s.pv {
			ke += v * v
		}
		s.comm.AllreduceScalar(ke, mpi.Sum)
	}
}

// Run executes the configured number of steps (or the ScaleOpts sample)
// and returns the rank's stats. The caller reads virtual run-time from
// the surrounding mpi.Run stats; when sampling, ScaleRuntime converts a
// sampled run-time to the full configuration.
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
	ke := 0.0
	for _, v := range s.pv {
		ke += 0.5 * v * v
	}
	return &Stats{
		StepsRun:      steps,
		ScaledSteps:   cfg.Steps,
		FinalParts:    len(s.px),
		KineticEnergy: ke * s.partScale,
		SetupTime:     setup,
	}, nil
}

// StepBlock runs `real` micro-steps and stretches their virtual cost to
// `represented` micro-steps, preserving the compute/communication split.
// Coupled drivers use it so a few executed steps stand in for the
// thousands of pressure-solver-equivalent micro-steps between coupling
// exchanges.
func (s *Sim) StepBlock(real, represented int) {
	if real < 1 {
		real = 1
	}
	// Barrier-align the block so every rank measures the same block
	// duration: each rank then stretches by the same amount and the
	// clocks stay aligned — otherwise the stretch of a slow rank becomes
	// wait time on its neighbours' NEXT block and compounds
	// exponentially through the exchange chain.
	s.comm.Barrier()
	comp, comm := s.comm.ComputeTime(), s.comm.CommTime()
	for i := 0; i < real; i++ {
		s.Step()
	}
	// Stretch first (the block's own cost only — the alignment barrier's
	// latency must not be multiplied), then re-align the clocks.
	if represented > real {
		s.comm.StretchSince(comp, comm, float64(represented)/float64(real))
	}
	s.comm.Barrier()
}

// SampledFraction returns full-run steps / executed steps for run-time
// scaling (>= 1).
func SampledFraction(cfg Config, sc ScaleOpts) float64 {
	if sc.SampleSteps > 0 && sc.SampleSteps < cfg.Steps {
		return float64(cfg.Steps) / float64(sc.SampleSteps)
	}
	return 1
}

// TotalCharge returns the global sum of deposited charge for diagnostics
// (collective).
func (s *Sim) TotalCharge() float64 {
	f := s.depositCharge()
	local := 0.0
	for _, v := range f {
		local += v
	}
	local /= s.dx * s.dx
	return s.comm.AllreduceScalar(local, mpi.Sum)
}

// ParticleCount returns the global particle count (collective).
func (s *Sim) ParticleCount() int {
	return s.comm.AllreduceInt(len(s.px), mpi.Sum)
}

// BoundarySample extracts n representative interface values (particle
// velocities, cycling) for coupling transfers.
func (s *Sim) BoundarySample(n int) []float64 {
	out := make([]float64, n)
	if n == 0 || len(s.pv) == 0 {
		return out
	}
	for i := range out {
		out[i] = s.pv[i%len(s.pv)]
	}
	return out
}

// AbsorbBoundary weakly forces the first particles' velocities with
// values received from a coupled neighbour instance.
func (s *Sim) AbsorbBoundary(vals []float64) {
	const eps = 1e-6
	for i, v := range vals {
		if i >= len(s.pv) {
			break
		}
		if v > -1 && v < 1 {
			s.pv[i] = (1-eps)*s.pv[i] + eps*v
		}
	}
}

// maxAbsVelocity reports the global max |v| (collective); used by tests
// to confirm the CFL-ish condition holds.
func (s *Sim) maxAbsVelocity() float64 {
	m := 0.0
	for _, v := range s.pv {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return s.comm.AllreduceScalar(m, mpi.Max)
}
