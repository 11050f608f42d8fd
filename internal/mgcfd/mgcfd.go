package mgcfd

import (
	"fmt"
	"math"

	"cpx/internal/cluster"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
	"cpx/internal/scratch"
)

// NVAR is the number of conserved flow variables (rho, rho*u, rho*v,
// rho*w, rho*E).
const NVAR = 5

// Per-edge and per-node work constants calibrated for MG-CFD's flux and
// update kernels on EPYC-class cores.
const (
	fluxFlopsPerEdge  = 130.0
	fluxBytesPerEdge  = 180.0
	updateFlopsPerNod = 30.0
	updateBytesPerNod = 120.0
)

// Message tag base for mgcfd exchanges (one tag per level).
const tagHalo = 20

// Every step runs rkStages Runge-Kutta stages with the coefficients
// rkAlpha; cfl is the Courant number New sets the time-step from.
const (
	rkStages int     = 3
	cfl      float64 = 0.8
)

var rkAlpha = [rkStages]float64{0.1481, 0.4, 1.0}

// Config describes an MG-CFD instance.
type Config struct {
	MeshCells int64 // global mesh size (e.g. 8M, 24M, 150M, 300M)
	Steps     int   // time-steps for the full run
	MGLevels  int   // multigrid depth; default 3
	Seed      int64
}

func (c Config) withDefaults() Config {
	if c.MGLevels == 0 {
		c.MGLevels = 3
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MeshCells < 8 {
		return fmt.Errorf("mgcfd: mesh of %d cells too small", c.MeshCells)
	}
	if c.Steps < 1 {
		return fmt.Errorf("mgcfd: need at least one step")
	}
	return nil
}

// ScaleOpts bound the in-memory working set; zero value disables capping.
type ScaleOpts struct {
	MaxCellsPerRank int
	SampleSteps     int
}

// Production returns the capping used by large harness runs.
func Production() ScaleOpts { return ScaleOpts{MaxCellsPerRank: 2048, SampleSteps: 2} }

// level is one multigrid level's local state.
type level struct {
	dims     mesh.Dims // simulated local dims at this level
	nodes    int
	edges    []mesh.Edge
	q        [][]float64 // NVAR x nodes conserved variables
	res      [][]float64 // NVAR x nodes residual accumulator
	faces    []faceInfo  // neighbour faces at this level
	workMult float64     // true/simulated work ratio at this level
	// before is the multigrid cascade's copy of q taken ahead of the
	// level's smoothing step; made on the first Step, reused after
	// (DESIGN.md §5.13).
	before [][]float64
}

type faceInfo struct {
	rank      int   // peer rank
	nodeIdx   []int // local node indices on this face (sim dims)
	trueCells int   // true face size at this level (for message cost)
}

// Keys and values of the read-only set-up state New takes from the run's
// memo (mpi.Shared): the decomposition, a level's edge list and a face's
// node list, which take a handful of distinct values across capped ranks.
type (
	decompKey struct {
		dims  mesh.Dims
		ranks int
	}
	decomposition struct {
		dc  *mesh.Decomp
		err error
	}
	edgeKey struct{ dims mesh.Dims }
	faceKey struct {
		dims      mesh.Dims
		axis, dir int
	}
)

// Sim is the per-rank MG-CFD state.
type Sim struct {
	comm   *mpi.Comm
	cfg    Config
	levels []*level
	scale  float64 // true/sim cell ratio on the finest level
	dt     float64
	// Instance-wide decomposition info.
	decomp *mesh.Decomp
	active bool // false for idle ranks (beyond the decomposition)
	// pack is exchangeHalo's one send buffer, refilled face after face:
	// SendVirtual copies before it returns (DESIGN.md §5.13).
	pack []float64
}

// New builds the per-rank state. Collective over c. Ranks beyond what the
// mesh can decompose into become idle participants (they still join
// collectives).
func New(c *mpi.Comm, cfg Config, sc ScaleOpts) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dims, p := mesh.CubeDims(cfg.MeshCells), c.Size()
	d := mpi.Shared(c, decompKey{dims, p}, func() decomposition {
		dc, err := mesh.NewDecompBestEffort(dims, p)
		return decomposition{dc, err}
	})
	if d.err != nil {
		return nil, d.err
	}
	dc := d.dc
	s := &Sim{comm: c, cfg: cfg, decomp: dc, active: c.Rank() < dc.Ranks()}
	if !s.active {
		return s, nil
	}
	local := dc.Local(c.Rank(), sc.MaxCellsPerRank)
	s.scale = local.Scale

	simDims := local.Sim
	trueDims := local.True
	for l := 0; l < cfg.MGLevels; l++ {
		lv := &level{dims: simDims}
		lv.nodes = int(simDims.Nodes())
		lv.edges = mpi.Shared(c, edgeKey{lv.dims}, func() []mesh.Edge { return mesh.StructuredEdges(lv.dims) })
		lv.q = allocVars(lv.nodes)
		lv.res = allocVars(lv.nodes)
		lv.workMult = float64(trueDims.Cells()) / float64(simDims.Cells())
		// Neighbour faces: node lists on each face of the sim box; true
		// sizes from the true box, both coarsened per level.
		for _, nb := range localNeighbours(local, l) {
			lv.faces = append(lv.faces, faceInfo{
				rank: nb.Rank,
				nodeIdx: mpi.Shared(c, faceKey{lv.dims, nb.Axis, nb.Dir}, func() []int {
					return faceNodes(lv.dims, nb.Axis, nb.Dir)
				}),
				trueCells: nb.FaceCells,
			})
		}
		s.levels = append(s.levels, lv)
		simDims = simDims.Coarsen()
		trueDims = trueDims.Coarsen()
	}
	s.initFlow()
	// dt from a fixed reference state (uniform flow, sound speed ~1).
	h := 1.0 / float64(dims.NI)
	s.dt = cfl * h / 2.0
	// Setup cost: mesh/edge generation over the true box.
	trueNodes := float64(local.True.Nodes())
	c.Compute(cluster.Work{Flops: 50 * trueNodes, Bytes: 200 * trueNodes})
	return s, nil
}

func allocVars(n int) [][]float64 {
	out := make([][]float64, NVAR)
	for v := range out {
		out[v] = make([]float64, n)
	}
	return out
}

// localNeighbours coarsens the face sizes of the true decomposition per
// level (a face shrinks by ~4x per level).
func localNeighbours(local *mesh.Local, lvl int) []mesh.Neighbor {
	out := make([]mesh.Neighbor, len(local.Neighbors))
	copy(out, local.Neighbors)
	shrink := 1
	for i := 0; i < lvl; i++ {
		shrink *= 4
	}
	for i := range out {
		fc := out[i].FaceCells / shrink
		if fc < 1 {
			fc = 1
		}
		out[i].FaceCells = fc
	}
	return out
}

// faceNodes lists the node indices on the given face of a block.
func faceNodes(d mesh.Dims, axis, dir int) []int {
	ni, nj, nk := d.NI+1, d.NJ+1, d.NK+1
	idx := func(i, j, k int) int { return (k*nj+j)*ni + i }
	var out []int
	switch axis {
	case 0:
		i := 0
		if dir > 0 {
			i = ni - 1
		}
		for k := 0; k < nk; k++ {
			for j := 0; j < nj; j++ {
				out = append(out, idx(i, j, k))
			}
		}
	case 1:
		j := 0
		if dir > 0 {
			j = nj - 1
		}
		for k := 0; k < nk; k++ {
			for i := 0; i < ni; i++ {
				out = append(out, idx(i, j, k))
			}
		}
	default:
		k := 0
		if dir > 0 {
			k = nk - 1
		}
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				out = append(out, idx(i, j, k))
			}
		}
	}
	return out
}

// initFlow sets a uniform free-stream state with a deterministic smooth
// perturbation, like MG-CFD's initialisation from far-field conditions.
func (s *Sim) initFlow() {
	for _, l := range s.levels {
		for n := 0; n < l.nodes; n++ {
			pert := 0.01 * math.Sin(float64(n)*0.1+float64(s.cfg.Seed))
			l.q[0][n] = 1.0 + pert // density
			l.q[1][n] = 0.5        // x-momentum (free stream)
			l.q[2][n] = 0
			l.q[3][n] = 0
			l.q[4][n] = 2.5 + pert // total energy
		}
	}
}

// pressureAt computes the perfect-gas pressure of a node from its
// conserved variables (density, momentum, total energy).
func pressureAt(rho, mx, my, mz, e float64) float64 {
	const gamma = 1.4
	if rho <= 0 {
		rho = 1e-10
	}
	ke := (mx*mx + my*my + mz*mz) / (2 * rho)
	p := (gamma - 1) * (e - ke)
	if p <= 0 {
		p = 1e-10
	}
	return p
}

// computeFlux runs the edge loop at one level: central flux differences
// with scalar (Rusanov) dissipation accumulate into the residual arrays.
// This is MG-CFD's compute_flux_edge kernel. The five variables are
// unrolled with the operations, operands and order of the per-variable
// loop referenceFlux (DESIGN.md §5.13); TestComputeFluxMatchesReference
// compares the two bit for bit.
//
//perf:hotpath
func (s *Sim) computeFlux(l *level) {
	for _, r := range l.res {
		clear(r)
	}
	// Every variable holds l.nodes values; slicing all ten to one length
	// lets each endpoint's index be checked once, not per array.
	n := l.nodes
	q0, q1, q2, q3, q4 := l.q[0][:n], l.q[1][:n], l.q[2][:n], l.q[3][:n], l.q[4][:n]
	r0, r1, r2, r3, r4 := l.res[0][:n], l.res[1][:n], l.res[2][:n], l.res[3][:n], l.res[4][:n]
	for _, e := range l.edges {
		a, b := int(e.A), int(e.B)
		// Scalar dissipation: local max wave speed estimate.
		pa := pressureAt(q0[a], q1[a], q2[a], q3[a], q4[a])
		pb := pressureAt(q0[b], q1[b], q2[b], q3[b], q4[b])
		rhoA, rhoB := max(q0[a], 1e-10), max(q0[b], 1e-10)
		ca := math.Sqrt(1.4 * pa / rhoA)
		cb := math.Sqrt(1.4 * pb / rhoB)
		ua := q1[a] / rhoA
		ub := q1[b] / rhoB
		lam := max(math.Abs(ua)+ca, math.Abs(ub)+cb)
		// Central difference of the convective flux (projected on the
		// edge direction) plus dissipation; momentum adds the pressure,
		// energy its work.
		f := 0.5*(q0[a]*ua+q0[b]*ub) - 0.5*lam*(q0[b]-q0[a])
		r0[a] -= f
		r0[b] += f
		f = 0.5*((q1[a]*ua+pa)+(q1[b]*ub+pb)) - 0.5*lam*(q1[b]-q1[a])
		r1[a] -= f
		r1[b] += f
		f = 0.5*(q2[a]*ua+q2[b]*ub) - 0.5*lam*(q2[b]-q2[a])
		r2[a] -= f
		r2[b] += f
		f = 0.5*(q3[a]*ua+q3[b]*ub) - 0.5*lam*(q3[b]-q3[a])
		r3[a] -= f
		r3[b] += f
		f = 0.5*((q4[a]*ua+pa*ua)+(q4[b]*ub+pb*ub)) - 0.5*lam*(q4[b]-q4[a])
		r4[a] -= f
		r4[b] += f
	}
	s.comm.Compute(cluster.Work{
		Flops: fluxFlopsPerEdge * float64(len(l.edges)) * l.workMult,
		Bytes: fluxBytesPerEdge * float64(len(l.edges)) * l.workMult,
	})
}

// exchangeHalo trades face states with every block neighbour at a level.
// Received states relax the local face nodes toward the neighbour's
// values, coupling the subdomains.
//
//perf:hotpath
func (s *Sim) exchangeHalo(l *level, lvlIdx int) {
	if len(l.faces) == 0 {
		return
	}
	tag := tagHalo + lvlIdx
	// Send all faces first (eager), then receive: standard Isend/Irecv
	// halo pattern.
	for _, f := range l.faces {
		buf := scratch.Floats(&s.pack, len(f.nodeIdx)*NVAR)
		for v := 0; v < NVAR; v++ {
			for i, n := range f.nodeIdx {
				buf[v*len(f.nodeIdx)+i] = l.q[v][n]
			}
		}
		s.comm.SendVirtual(f.rank, tag, buf, f.trueCells*NVAR*8)
	}
	for _, f := range l.faces {
		d, _, _ := s.comm.Recv(f.rank, tag)
		// Face buffers may differ in sim length across ranks (capping is
		// per-rank); relax with what overlaps.
		per := len(d) / NVAR
		m := min(per, len(f.nodeIdx))
		for v := 0; v < NVAR; v++ {
			for i := 0; i < m; i++ {
				n := f.nodeIdx[i]
				l.q[v][n] = 0.5*l.q[v][n] + 0.5*d[v*per+i]
			}
		}
		s.comm.Release(d)
	}
}

// update applies one forward-Euler stage with the accumulated residual.
func (s *Sim) update(l *level, dtStage float64) {
	volInv := 1.0 // unit cell volumes in the proxy
	for v := 0; v < NVAR; v++ {
		q, r := l.q[v], l.res[v]
		for n := range q {
			q[n] += dtStage * volInv * r[n]
		}
	}
	s.comm.Compute(cluster.Work{
		Flops: updateFlopsPerNod * float64(l.nodes) * l.workMult,
		Bytes: updateBytesPerNod * float64(l.nodes) * l.workMult,
	})
}

// restrictTo injects the fine solution into the coarse level (volume
// averaging over 2x2x2 blocks).
func (s *Sim) restrictTo(fine, coarse *level) {
	fd, cd := fine.dims, coarse.dims
	fni, fnj := fd.NI+1, fd.NJ+1
	cni, cnj, cnk := cd.NI+1, cd.NJ+1, cd.NK+1
	for v := 0; v < NVAR; v++ {
		for k := 0; k < cnk; k++ {
			for j := 0; j < cnj; j++ {
				for i := 0; i < cni; i++ {
					fi, fj, fk := min(2*i, fni-1), min(2*j, fnj-1), min(2*k, fd.NK)
					coarse.q[v][(k*cnj+j)*cni+i] = fine.q[v][(fk*fnj+fj)*fni+fi]
				}
			}
		}
	}
	s.comm.Compute(cluster.Work{
		Flops: 8 * float64(coarse.nodes) * coarse.workMult,
		Bytes: 80 * float64(coarse.nodes) * coarse.workMult,
	})
}

// prolongFrom adds the coarse correction back to the fine level with
// nearest-neighbour prolongation and a damping factor.
func (s *Sim) prolongFrom(coarse, fine *level, before [][]float64, damp float64) {
	fd, cd := fine.dims, coarse.dims
	fni, fnj, fnk := fd.NI+1, fd.NJ+1, fd.NK+1
	cni, cnj := cd.NI+1, cd.NJ+1
	for v := 0; v < NVAR; v++ {
		for k := 0; k < fnk; k++ {
			for j := 0; j < fnj; j++ {
				for i := 0; i < fni; i++ {
					ci, cj, ck := min(i/2, cd.NI), min(j/2, cd.NJ), min(k/2, cd.NK)
					cn := (ck*cnj+cj)*cni + ci
					fn := (k*fnj+j)*fni + i
					fine.q[v][fn] += damp * (coarse.q[v][cn] - before[v][cn])
				}
			}
		}
	}
	s.comm.Compute(cluster.Work{
		Flops: 4 * float64(fine.nodes) * fine.workMult,
		Bytes: 48 * float64(fine.nodes) * fine.workMult,
	})
}

// region runs fn inside a named trace region, mirroring MG-CFD's named
// kernels for ARM-MAP-style profiles (no-op when profiling is off).
func (s *Sim) region(name string, fn func()) {
	if p := s.comm.Profile(); p != nil {
		defer p.Scoped(name)()
	}
	fn()
}

// Step advances one time-step: RK stages on the fine grid, then a
// multigrid cascade, then the residual allreduce MG-CFD performs for
// convergence monitoring.
func (s *Sim) Step() float64 {
	if !s.active {
		// Idle ranks still join the step's collective, contributing
		// nothing to the residual sum.
		return math.Sqrt(s.comm.AllreduceScalar(0, mpi.Sum))
	}
	fine := s.levels[0]
	for _, a := range rkAlpha {
		s.region("halo_exchange", func() { s.exchangeHalo(fine, 0) })
		s.region("compute_flux_edge", func() { s.computeFlux(fine) })
		s.region("time_step", func() { s.update(fine, a*s.dt) })
	}
	// Multigrid cascade: restrict, smooth, prolong correction.
	s.region("mg_restrict", func() {
		for li := 1; li < len(s.levels); li++ {
			s.restrictTo(s.levels[li-1], s.levels[li])
		}
	})
	for li := len(s.levels) - 1; li >= 1; li-- {
		l := s.levels[li]
		if l.before == nil {
			l.before = allocVars(l.nodes)
		}
		before := l.before
		for v := 0; v < NVAR; v++ {
			copy(before[v], l.q[v])
		}
		s.region("halo_exchange", func() { s.exchangeHalo(l, li) })
		s.region("compute_flux_edge", func() { s.computeFlux(l) })
		s.region("time_step", func() { s.update(l, 0.5*s.dt) })
		s.region("mg_prolong", func() { s.prolongFrom(l, s.levels[li-1], before, 0.3) })
	}
	// Residual norm allreduce (convergence monitor).
	var res float64
	s.region("residual", func() {
		local := 0.0
		for n := range fine.res[0] {
			local += fine.res[0][n] * fine.res[0][n]
		}
		s.comm.Compute(cluster.Work{Flops: 2 * float64(fine.nodes) * fine.workMult,
			Bytes: 8 * float64(fine.nodes) * fine.workMult})
		res = math.Sqrt(s.comm.AllreduceScalar(local, mpi.Sum))
	})
	return res
}

// Stats summarises a completed run on one rank.
type Stats struct {
	StepsRun    int
	ScaledSteps int
	Residual    float64
	Active      bool
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
	res := 0.0
	for i := 0; i < steps; i++ {
		res = s.Step()
	}
	return &Stats{StepsRun: steps, ScaledSteps: cfg.Steps, Residual: res, Active: s.active, SetupTime: setup}, nil
}

// MassTotal returns the global sum of density over owned nodes
// (collective); conserved up to boundary fluxes.
func (s *Sim) MassTotal() float64 {
	local := 0.0
	if s.active {
		for _, rho := range s.levels[0].q[0] {
			local += rho
		}
	}
	return s.comm.AllreduceScalar(local, mpi.Sum)
}

// Density returns the fine-level density field (for tests).
func (s *Sim) Density() []float64 {
	if !s.active {
		return nil
	}
	return s.levels[0].q[0]
}

// Active reports whether this rank participates in the decomposition.
func (s *Sim) Active() bool { return s.active }

// BoundarySample extracts n representative interface values (density at
// the first n fine-level nodes, cycling) for coupling transfers.
func (s *Sim) BoundarySample(n int) []float64 {
	out := make([]float64, n)
	if !s.active || n == 0 {
		return out
	}
	rho := s.levels[0].q[0]
	for i := range out {
		out[i] = rho[i%len(rho)]
	}
	return out
}

// AbsorbBoundary relaxes the inlet-region density toward values received
// from a coupled neighbour instance.
func (s *Sim) AbsorbBoundary(vals []float64) {
	if !s.active {
		return
	}
	rho := s.levels[0].q[0]
	for i, v := range vals {
		if i >= len(rho) {
			break
		}
		if v > 0.1 && v < 10 { // guard against non-physical transfers
			rho[i] = 0.95*rho[i] + 0.05*v
		}
	}
}
