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
	q        [][]float64 // NVAR x nodes conserved variables; nil on a field-free rank (Time)
	faces    []faceInfo  // neighbour faces at this level
	workMult float64     // true/simulated work ratio at this level
	// before is the multigrid cascade's copy of q taken ahead of the
	// level's smoothing step, which prolongFrom overwrites with the
	// damped correction; made on the first Step, reused after
	// (DESIGN.md §5.13).
	before [][]float64
}

type faceInfo struct {
	rank      int       // peer rank
	nodes     *faceList // the face's nodes (sim dims), shared by the ranks of equal dims; empty on a field-free rank
	trueCells int       // true face size at this level (for message cost)
}

// faceList is the nodes of one face of a box: their local indices and
// the runs of consecutive ones among them, which exchangeHalo copies
// whole. runs is nil where every run is one node (the strided i-faces).
type faceList struct {
	idx  []int
	runs []nodeRun
}

// nodeRun is n consecutive node indices from start.
type nodeRun struct{ start, n int }

// noNodes is the face list of every face of a field-free rank.
var noNodes = &faceList{}

// newFaceList is the face list over idx. A k-face of a box is one run, a
// j-face one per node plane.
func newFaceList(idx []int) *faceList {
	var runs []nodeRun
	for i, n := range idx {
		if i > 0 && n == idx[i-1]+1 {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, nodeRun{n, 1})
		}
	}
	if len(runs) == len(idx) {
		runs = nil
	}
	return &faceList{idx, runs}
}

// faceKey keys a face's node list in the run's memo (mpi.Shared): the
// node dims of the level's box, which take a handful of distinct values
// across capped ranks, and the face.
type faceKey struct {
	nodes     mesh.Dims
	axis, dir int
}

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
	// pack is the rank's one work vector, sized by New (workLen): the
	// send buffer exchangeHalo refills face after face (SendVirtual
	// copies before it returns) and fluxStage's primitive and residual
	// windows (DESIGN.md §5.13). Nil on a field-free rank.
	pack []float64
	// boundary is BoundarySample's buffer, refilled every call.
	boundary []float64
}

// New builds the per-rank state. Collective over c. Ranks beyond what the
// mesh can decompose into become idle participants (they still join
// collectives).
func New(c *mpi.Comm, cfg Config, sc ScaleOpts) (*Sim, error) { return newSim(c, cfg, sc, true) }

// newSim builds the per-rank state, with flow fields or, for Time,
// without: a field-free rank keeps every level's dims, work ratio and
// true face sizes, which are all its charges read, and allocates no q,
// work vector or face node list.
func newSim(c *mpi.Comm, cfg Config, sc ScaleOpts, fields bool) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dims := mesh.CubeDims(cfg.MeshCells)
	dc, err := mesh.SharedDecomp(c, dims)
	if err != nil {
		return nil, err
	}
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
		lv.workMult = float64(trueDims.Cells()) / float64(simDims.Cells())
		// Neighbour faces: node lists on each face of the sim box; true
		// sizes from the true box, both coarsened per level.
		nodes := mesh.Dims{NI: simDims.NI + 1, NJ: simDims.NJ + 1, NK: simDims.NK + 1}
		for _, nb := range local.Neighbors {
			f := faceInfo{rank: nb.Rank, nodes: noNodes, trueCells: nb.FaceCellsAt(l)}
			if fields {
				f.nodes = mpi.Shared(c, faceKey{nodes, nb.Axis, nb.Dir}, func() *faceList {
					return newFaceList(mesh.FaceIndices(nodes, nb.Axis, nb.Dir))
				})
			}
			lv.faces = append(lv.faces, f)
		}
		if fields {
			lv.q = allocVars(lv.nodes)
		}
		s.levels = append(s.levels, lv)
		simDims = simDims.Coarsen()
		trueDims = trueDims.Coarsen()
	}
	if fields {
		s.pack = make([]float64, workLen(s.levels))
		s.initFlow()
	}
	// dt from a fixed reference state (uniform flow, sound speed ~1).
	h := 1.0 / float64(dims.NI)
	s.dt = cfl * h / 2.0
	// Setup cost: mesh/edge generation over the true box.
	trueNodes := float64(local.True.Nodes())
	c.Compute(cluster.Work{Flops: 50 * trueNodes, Bytes: 200 * trueNodes})
	return s, nil
}

// windowPlanes is the length of fluxStage's window in (i, j) planes:
// two planes each of pressure, x-velocity, wave speed and the NVAR
// residuals.
const windowPlanes = 2 * (3 + NVAR)

// workLen is the length of a rank's work vector: the larger of
// fluxStage's window and exchangeHalo's largest face buffer, over all
// levels.
func workLen(levels []*level) int {
	n := 0
	for _, l := range levels {
		n = max(n, windowPlanes*(l.dims.NI+1)*(l.dims.NJ+1))
		for _, f := range l.faces {
			n = max(n, NVAR*len(f.nodes.idx))
		}
	}
	return n
}

func allocVars(n int) [][]float64 {
	out := make([][]float64, NVAR)
	for v := range out {
		out[v] = make([]float64, n)
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

// computeFlux runs one forward-Euler stage at one level (fluxStage)
// when the rank holds fields, and charges the level's edge loop. It
// returns the stage's sum of squared density residuals, 0 on a
// field-free rank.
func (s *Sim) computeFlux(l *level, dtStage float64) (norm float64) {
	if l.q != nil {
		norm = s.fluxStage(l, dtStage)
	}
	edges := float64(edgeCount(l.dims))
	s.comm.Compute(cluster.Work{
		Flops: fluxFlopsPerEdge * edges * l.workMult,
		Bytes: fluxBytesPerEdge * edges * l.workMult,
	})
	return norm
}

// fluxStage runs one forward-Euler stage at one level: the edge loop
// (central flux differences with scalar (Rusanov) dissipation) and the
// update q += dtStage·residual, fused into one pass over the (i, j)
// planes. The edge loop is MG-CFD's compute_flux_edge kernel, over the
// edges of the box node by node, each node's i-, j- and k-edge in turn
// (the tests' structuredEdges). It returns the sum of the squared density
// residuals, in node order, which Step reduces into the residual norm.
//
// A node ends about six edges, and its pressure, x-velocity and wave
// speed |u|+c are functions of its five values alone, so they are
// computed once per node, a plane ahead, into a window of two (i, j)
// planes in s.pack. Each (j, k) row of nodes then runs three unit-stride
// passes — its i-edges, its j-edges to the next row, its k-edges to the
// next plane — which gives every residual its contributions in the edge
// list's order. Each flux keeps the operations, operands and order of the
// per-variable loop referenceFlux (DESIGN.md §5.13).
//
// The residuals live in a two-plane window beside the primitives. Plane
// k's are complete once its k-edges upward have run, and no later edge
// reads plane k's q, so it is updated then and its window slot cleared
// for plane k+2 (the wavefront rule, DESIGN.md §5.13).
// TestComputeFluxMatchesReference compares q and the sum bit for bit
// with referenceFlux followed by the node-wise update.
//
//perf:hotpath
func (s *Sim) fluxStage(l *level, dtStage float64) (norm float64) {
	ni, nj, nk := l.dims.NI+1, l.dims.NJ+1, l.dims.NK+1
	plane := ni * nj
	// Every variable holds l.nodes values and every window array two
	// planes. edges reslices to one length again; dropping the [:n] here
	// read ~4 % slower on the engine benchmark (three pairs, 2-core host).
	n, w := l.nodes, s.pack[:windowPlanes*plane]
	fl := fluxLoop{
		q0: l.q[0][:n], q1: l.q[1][:n], q2: l.q[2][:n], q3: l.q[3][:n], q4: l.q[4][:n],
		p: w[:2*plane], u: w[2*plane : 4*plane], speed: w[4*plane : 6*plane],
		r0: w[6*plane : 8*plane], r1: w[8*plane : 10*plane], r2: w[10*plane : 12*plane],
		r3: w[12*plane : 14*plane], r4: w[14*plane:],
	}
	// The residual window starts at +0, as every residual did.
	clear(w[6*plane:])
	// cur and next are the window offsets of planes k and k+1.
	cur, next := 0, plane
	fl.primitives(0, cur, plane)
	for k := 0; k < nk; k++ {
		if k+1 < nk {
			fl.primitives((k+1)*plane, next, plane)
		}
		for j := 0; j < nj; j++ {
			a, wa := (k*nj+j)*ni, cur+j*ni
			fl.edges(a, a+1, wa, wa+1, ni-1)
			if j+1 < nj {
				fl.edges(a, a+ni, wa, wa+ni, ni)
			}
			if k+1 < nk {
				fl.edges(a, a+plane, wa, next+j*ni, ni)
			}
		}
		norm = fl.retire(k*plane, cur, plane, dtStage, norm)
		cur, next = next, cur
	}
	return norm
}

// edgeCount is the number of node-to-node edges of a hex block with cell
// dims d, in closed form.
func edgeCount(d mesh.Dims) int {
	ni, nj, nk := d.NI+1, d.NJ+1, d.NK+1
	return (ni-1)*nj*nk + ni*(nj-1)*nk + ni*nj*(nk-1)
}

// fluxLoop holds one fluxStage call's operands: a level's conserved
// variables q and the window of two planes of nodes — their residuals r
// and primitives, pressure p, x-velocity u and wave speed |u|+c.
type fluxLoop struct {
	q0, q1, q2, q3, q4 []float64
	r0, r1, r2, r3, r4 []float64
	p, u, speed        []float64
}

// primitives fills window slots w0 to w0+m-1 from nodes n0 to n0+m-1.
//
//perf:hotpath
func (fl *fluxLoop) primitives(n0, w0, m int) {
	q0, q1, q2, q3, q4 := fl.q0[n0:n0+m], fl.q1[n0:n0+m], fl.q2[n0:n0+m], fl.q3[n0:n0+m], fl.q4[n0:n0+m]
	p, u, speed := fl.p[w0:w0+m], fl.u[w0:w0+m], fl.speed[w0:w0+m]
	for i := range m {
		rho := max(q0[i], 1e-10)
		pi := pressureAt(q0[i], q1[i], q2[i], q3[i], q4[i])
		ui := q1[i] / rho
		p[i], u[i], speed[i] = pi, ui, math.Abs(ui)+math.Sqrt(1.4*pi/rho)
	}
}

// edges accumulates the fluxes of the m edges from node a+i to node b+i,
// whose primitives and residuals sit in window slots wa+i and wb+i, in
// order of i.
//
//perf:hotpath
func (fl *fluxLoop) edges(a, b, wa, wb, m int) {
	// Reslicing each group to one length lets the compiler check an index
	// once per group, not per array.
	n, nw := len(fl.q0), len(fl.p)
	q0, q1, q2, q3, q4 := fl.q0[:n], fl.q1[:n], fl.q2[:n], fl.q3[:n], fl.q4[:n]
	r0, r1, r2, r3, r4 := fl.r0[:nw], fl.r1[:nw], fl.r2[:nw], fl.r3[:nw], fl.r4[:nw]
	p, u, speed := fl.p[:nw], fl.u[:nw], fl.speed[:nw]
	for i := range m {
		x, y, wx, wy := a+i, b+i, wa+i, wb+i
		pa, pb, ua, ub := p[wx], p[wy], u[wx], u[wy]
		lam := max(speed[wx], speed[wy])
		// Central difference of the convective flux (projected on the
		// edge direction) plus dissipation; momentum adds the pressure,
		// energy its work.
		f := 0.5*(q0[x]*ua+q0[y]*ub) - 0.5*lam*(q0[y]-q0[x])
		r0[wx] -= f
		r0[wy] += f
		f = 0.5*((q1[x]*ua+pa)+(q1[y]*ub+pb)) - 0.5*lam*(q1[y]-q1[x])
		r1[wx] -= f
		r1[wy] += f
		f = 0.5*(q2[x]*ua+q2[y]*ub) - 0.5*lam*(q2[y]-q2[x])
		r2[wx] -= f
		r2[wy] += f
		f = 0.5*(q3[x]*ua+q3[y]*ub) - 0.5*lam*(q3[y]-q3[x])
		r3[wx] -= f
		r3[wy] += f
		f = 0.5*((q4[x]*ua+pa*ua)+(q4[y]*ub+pb*ub)) - 0.5*lam*(q4[y]-q4[x])
		r4[wx] -= f
		r4[wy] += f
	}
}

// retire applies the finished residuals of nodes n0 to n0+m-1, in window
// slots w0 to w0+m-1, to q, adds the squared density residuals to norm
// in node order and clears the slots for the plane after next.
//
//perf:hotpath
func (fl *fluxLoop) retire(n0, w0, m int, dtStage, norm float64) float64 {
	for _, x := range fl.r0[w0 : w0+m] {
		norm += x * x
	}
	volInv := 1.0 // unit cell volumes in the proxy
	qs := [NVAR][]float64{fl.q0, fl.q1, fl.q2, fl.q3, fl.q4}
	rs := [NVAR][]float64{fl.r0, fl.r1, fl.r2, fl.r3, fl.r4}
	for v := range qs {
		q, r := qs[v][n0:n0+m], rs[v][w0:w0+m]
		for i := range q {
			q[i] += dtStage * volInv * r[i]
		}
		clear(r)
	}
	return norm
}

// exchangeHalo trades face states with every block neighbour at a level.
// Received states relax the local face nodes toward the neighbour's
// values, coupling the subdomains. A face with runs of consecutive nodes
// is packed by copying each run and relaxed over it as one slice; a
// strided face goes node by node. A field-free rank has no nodes to pack
// or relax: its buffers are nil, so each message carries the same
// virtual bytes with no payload.
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
		m := len(f.nodes.idx)
		buf := s.pack[:m*NVAR]
		for v, q := range l.q {
			out := buf[v*m : (v+1)*m]
			if f.nodes.runs == nil {
				for i, n := range f.nodes.idx {
					out[i] = q[n]
				}
				continue
			}
			off := 0
			for _, r := range f.nodes.runs {
				off += copy(out[off:], q[r.start:r.start+r.n])
			}
		}
		s.comm.SendVirtual(f.rank, tag, buf, f.trueCells*NVAR*8)
	}
	for _, f := range l.faces {
		d, _, _ := s.comm.Recv(f.rank, tag)
		// Face buffers may differ in sim length across ranks (capping is
		// per-rank); relax with what overlaps.
		per := len(d) / NVAR
		m := min(per, len(f.nodes.idx))
		for v, q := range l.q {
			in := d[v*per : v*per+m]
			if f.nodes.runs == nil {
				for i, n := range f.nodes.idx[:m] {
					q[n] = 0.5*q[n] + 0.5*in[i]
				}
				continue
			}
			for _, r := range f.nodes.runs {
				if len(in) == 0 {
					break
				}
				k := min(r.n, len(in))
				face := q[r.start : r.start+k]
				for i, x := range in[:k] {
					face[i] = 0.5*face[i] + 0.5*x
				}
				in = in[k:]
			}
		}
		s.comm.Release(d)
	}
}

// update charges the forward-Euler stage fluxStage applied as its
// wavefront passed, in the "time_step" region where MG-CFD's profile
// shows it.
func (s *Sim) update(l *level) {
	s.comm.Compute(cluster.Work{
		Flops: updateFlopsPerNod * float64(l.nodes) * l.workMult,
		Bytes: updateBytesPerNod * float64(l.nodes) * l.workMult,
	})
}

// restrictTo injects the fine solution into the coarse level (volume
// averaging over 2x2x2 blocks), one coarse row at a time. On a
// field-free rank it only charges the transfer.
//
//perf:hotpath
func (s *Sim) restrictTo(fine, coarse *level) {
	fd, cd := fine.dims, coarse.dims
	fni, fnj := fd.NI+1, fd.NJ+1
	cni, cnj, cnk := cd.NI+1, cd.NJ+1, cd.NK+1
	for v := range fine.q {
		fq, cq := fine.q[v], coarse.q[v]
		for k := 0; k < cnk; k++ {
			fk := min(2*k, fd.NK)
			for j := 0; j < cnj; j++ {
				frow := fq[(fk*fnj+min(2*j, fnj-1))*fni:][:fni]
				crow := cq[(k*cnj+j)*cni:][:cni]
				for i := range crow {
					crow[i] = frow[min(2*i, fni-1)]
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
// nearest-neighbour prolongation and a damping factor. before holds the
// coarse level's values ahead of its smoothing step; the damped
// correction damp*(coarse.q - before) is computed once per coarse node,
// in place of before, and then added to the fine level row by row. On a
// field-free rank, whose before is nil, it only charges the transfer.
//
//perf:hotpath
func (s *Sim) prolongFrom(coarse, fine *level, before [][]float64, damp float64) {
	fd, cd := fine.dims, coarse.dims
	fni, fnj, fnk := fd.NI+1, fd.NJ+1, fd.NK+1
	cni, cnj := cd.NI+1, cd.NJ+1
	for v := range fine.q {
		corr, cq := before[v][:coarse.nodes], coarse.q[v][:coarse.nodes]
		for n := range corr {
			corr[n] = damp * (cq[n] - corr[n])
		}
		fq := fine.q[v]
		for k := 0; k < fnk; k++ {
			ck := min(k/2, cd.NK)
			for j := 0; j < fnj; j++ {
				crow := corr[(ck*cnj+min(j/2, cd.NJ))*cni:][:cni]
				frow := fq[(k*fnj+j)*fni:][:fni]
				for i := range frow {
					frow[i] += crow[min(i/2, cd.NI)]
				}
			}
		}
	}
	s.comm.Compute(cluster.Work{
		Flops: 4 * float64(fine.nodes) * fine.workMult,
		Bytes: 48 * float64(fine.nodes) * fine.workMult,
	})
}

// snapshot copies the level's q into before, made on the first call, and
// returns it; nil on a field-free rank.
func (l *level) snapshot() [][]float64 {
	if l.q == nil {
		return nil
	}
	if l.before == nil {
		l.before = allocVars(l.nodes)
	}
	for v, q := range l.q {
		copy(l.before[v], q)
	}
	return l.before
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
// convergence monitoring. A field-free rank (Time) runs the same
// schedule, every charge, message and collective, with the arithmetic
// skipped, and contributes 0 to the residual.
func (s *Sim) Step() float64 {
	if !s.active {
		// Idle ranks still join the step's collective, contributing
		// nothing to the residual sum.
		return math.Sqrt(s.comm.AllreduceScalar(0, mpi.Sum))
	}
	fine := s.levels[0]
	// norm is the last stage's sum of squared density residuals.
	var norm float64
	for _, a := range rkAlpha {
		s.region("halo_exchange", func() { s.exchangeHalo(fine, 0) })
		s.region("compute_flux_edge", func() { norm = s.computeFlux(fine, a*s.dt) })
		s.region("time_step", func() { s.update(fine) })
	}
	// Multigrid cascade: restrict, smooth, prolong correction.
	s.region("mg_restrict", func() {
		for li := 1; li < len(s.levels); li++ {
			s.restrictTo(s.levels[li-1], s.levels[li])
		}
	})
	for li := len(s.levels) - 1; li >= 1; li-- {
		l := s.levels[li]
		before := l.snapshot()
		s.region("halo_exchange", func() { s.exchangeHalo(l, li) })
		s.region("compute_flux_edge", func() { s.computeFlux(l, 0.5*s.dt) })
		s.region("time_step", func() { s.update(l) })
		s.region("mg_prolong", func() { s.prolongFrom(l, s.levels[li-1], before, 0.3) })
	}
	// Residual norm allreduce (convergence monitor).
	var res float64
	s.region("residual", func() {
		s.comm.Compute(cluster.Work{Flops: 2 * float64(fine.nodes) * fine.workMult,
			Bytes: 8 * float64(fine.nodes) * fine.workMult})
		res = math.Sqrt(s.comm.AllreduceScalar(norm, mpi.Sum))
	})
	return res
}

// Stats summarises a completed run on one rank.
type Stats struct {
	StepsRun    int
	ScaledSteps int
	Residual    float64 // 0 from Time
	Active      bool
	// SetupTime is the virtual time consumed before stepping began (max
	// over ranks); harnesses scale only the stepping phase when sampling.
	SetupTime float64
}

// Time runs the configured (or sampled) number of steps for their virtual
// time alone: every rank charges, sends and reduces exactly what a rank
// stepping the flow fields does, with no fields behind them. No clock
// reads the fields — compute charges come from edge and node counts, halo
// bytes from the true faces — so the run's clocks, profiles, timelines
// and comm matrix are those of a run with fields, bit for bit
// (TestTimeMatchesRun); only the residual, which sums the fields, reads
// 0. For standalone runs that only time the mini-app.
func Time(c *mpi.Comm, cfg Config, sc ScaleOpts) (*Stats, error) { return run(c, cfg, sc, false) }

func run(c *mpi.Comm, cfg Config, sc ScaleOpts, fields bool) (*Stats, error) {
	s, err := newSim(c, cfg, sc, fields)
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

// BoundarySample extracts n representative interface values (density at
// the first n fine-level nodes, cycling) for coupling transfers, into a
// buffer the rank keeps: the next call overwrites it.
//
//perf:hotpath
func (s *Sim) BoundarySample(n int) []float64 {
	out := scratch.Floats(&s.boundary, n)
	if !s.active || n == 0 {
		clear(out)
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
