package amg

import (
	"math"

	"cpx/internal/cluster"
	"cpx/internal/scratch"
	"cpx/internal/sparse"
)

// Result reports the outcome of an iterative solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual ||b-Ax|| / ||b||
	Converged  bool
}

// PCG solves A x = b with conjugate gradients preconditioned by one AMG
// cycle per iteration — the pressure-correction solver configuration of
// the production code (CG + aggregate AMG).
func (h *Hierarchy) PCG(b, x []float64, tol float64, maxIter int) Result {
	return CG(serialSystem{h}, b, x, tol, maxIter, new(CGWork))
}

// CGSystem is a linear system for CG. Each method charges its own
// modelled cost, if the system has one.
type CGSystem interface {
	MulVec(x, y []float64)       // y = A x
	Dot(a, b []float64) float64  // the inner product over the whole system
	Precondition(r, z []float64) // z = M⁻¹ r, whatever z held before
}

// updateCharger is a CGSystem that charges CG's per-iteration update of x
// and r over n values, between the update and the residual norm.
type updateCharger interface{ chargeUpdate(n int) }

// CGWork holds CG's working vectors, sized on first use and reused by
// every later solve. A caller keeps one per concurrent solve.
type CGWork struct{ r, z, p, ap []float64 }

// CG solves A x = b from the initial x by conjugate gradients
// preconditioned by sys, until the relative residual ||b-Ax|| / ||b||
// drops below tol or maxIter (at least 1) iterations elapse. An iteration
// whose search direction has zero energy has solved the system exactly,
// so it reports convergence by the residual. Every exit returns the
// residual it last computed: none adds an inner product.
func CG(sys CGSystem, b, x []float64, tol float64, maxIter int, w *CGWork) Result {
	n := len(x)
	r := scratch.Floats(&w.r, n)
	sys.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := math.Sqrt(sys.Dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	z := scratch.Floats(&w.z, n)
	sys.Precondition(r, z)
	p := scratch.Floats(&w.p, n)
	copy(p, z)
	ap := scratch.Floats(&w.ap, n)
	rz := sys.Dot(r, z)
	charger, _ := sys.(updateCharger)
	res := 0.0
	for it := 1; it <= maxIter; it++ {
		sys.MulVec(p, ap)
		pap := sys.Dot(p, ap)
		if pap == 0 {
			res = math.Sqrt(sys.Dot(r, r)) / bnorm
			return Result{Iterations: it, Residual: res, Converged: res < tol}
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if charger != nil {
			charger.chargeUpdate(n)
		}
		res = math.Sqrt(sys.Dot(r, r)) / bnorm
		if res < tol {
			return Result{Iterations: it, Residual: res, Converged: true}
		}
		sys.Precondition(r, z)
		rzNew := sys.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return Result{Iterations: maxIter, Residual: res}
}

// serialSystem is a hierarchy's finest operator preconditioned by one of
// its cycles, with the local inner product; nothing is charged.
type serialSystem struct{ h *Hierarchy }

func (s serialSystem) MulVec(x, y []float64)       { s.h.Levels[0].op.MulVec(x, y) }
func (s serialSystem) Dot(a, b []float64) float64  { return dot(a, b) }
func (s serialSystem) Precondition(r, z []float64) { s.h.Precondition(r, z) }

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ---- Distributed solve ------------------------------------------------------

// DistSolver solves a distributed system with CG preconditioned by a
// block-local AMG hierarchy: each rank owns a row block of the global
// operator (sparse.Dist), builds a serial hierarchy on its diagonal
// block, and applies it as a block-Jacobi preconditioner. Combined with
// the HybridGS smoother this is exactly the "hybrid Gauss-Seidel within a
// task, Jacobi across tasks" structure of Section IV-B.
type DistSolver struct {
	D     *sparse.Dist
	Local *Hierarchy
	work  CGWork // Solve's vectors
}

// NewDistSolver builds the local-block hierarchy. Collective over d.Comm.
func NewDistSolver(d *sparse.Dist, opts Options) (*DistSolver, error) {
	// Extract the diagonal block of the localised rows.
	own := d.OwnedRows()
	rp := make([]int, own+1)
	var ci []int
	var v []float64
	l := d.Local
	for i := 0; i < own; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if c := l.ColIdx[k]; c < own {
				ci = append(ci, c)
				v = append(v, l.Val[k])
			}
		}
		rp[i+1] = len(ci)
	}
	block := &sparse.CSR{Rows: own, Cols: own, RowPtr: rp, ColIdx: ci, Val: v}
	h, err := Setup(block, opts)
	if err != nil {
		return nil, err
	}
	// Charge the setup work (the AMG setup phase the paper flags as a
	// >30k-core scaling concern).
	d.Comm.Compute(h.SetupWork.Scale(d.WorkScale))
	return &DistSolver{D: d, Local: h}, nil
}

// precondition applies one local AMG cycle to r, charging its work.
func (s *DistSolver) precondition(r, z []float64) {
	s.Local.Precondition(r, z)
	s.D.Comm.Compute(s.Local.CycleWork().Scale(s.D.WorkScale))
}

// Solve runs distributed PCG. b and x are the rank's owned slices.
// Collective over the communicator; every rank gets the same Result.
func (s *DistSolver) Solve(b, x []float64, tol float64, maxIter int) Result {
	return CG(distSystem{s}, b, x, tol, maxIter, &s.work)
}

// distSystem is the distributed operator preconditioned by the local
// hierarchy; sparse.Dist charges the products, precondition the cycle.
type distSystem struct{ s *DistSolver }

func (d distSystem) MulVec(x, y []float64)       { d.s.D.MulVec(x, y) }
func (d distSystem) Dot(a, b []float64) float64  { return d.s.D.Dot(a, b) }
func (d distSystem) Precondition(r, z []float64) { d.s.precondition(r, z) }

func (d distSystem) chargeUpdate(n int) {
	ws := d.s.D.WorkScale
	d.s.D.Comm.Compute(cluster.Work{Flops: 4 * float64(n) * ws, Bytes: 48 * float64(n) * ws})
}
