package amg

import (
	"fmt"
	"math"

	"cpx/internal/cluster"
	"cpx/internal/scratch"
	"cpx/internal/sparse"
)

// Coarsening selects the coarsening algorithm.
type Coarsening int

// Coarsening algorithms.
const (
	Aggregation Coarsening = iota // greedy aggregation (production default)
	PMISSplit                     // parallel maximal independent set C/F
)

// Interp selects the interpolation operator.
type Interp int

// Interpolation operators. Tentative/Smoothed pair with Aggregation;
// Direct/ExtendedI pair with PMISSplit.
const (
	Tentative Interp = iota
	Smoothed
	Direct
	ExtendedI
)

// Smoother selects the relaxation scheme.
type Smoother int

// Smoothers.
const (
	Jacobi Smoother = iota
	GaussSeidel
	HybridGS  // Gauss-Seidel within a block, Jacobi across blocks [51]
	Chebyshev // polynomial smoother, the other ultraparallel option of [51]
)

// Cycle selects the multigrid cycle type.
type Cycle int

// Cycle types.
const (
	VCycle Cycle = iota
	KCycle       // Krylov-accelerated cycle; better convergence, worse scaling [50]
)

// SpGEMMKind selects the kernel used for the Galerkin product at setup.
type SpGEMMKind int

// SpGEMM kernels (Section IV-B).
const (
	SpGEMMTwoPass SpGEMMKind = iota // baseline: inputs read twice
	SpGEMMSPA                       // optimised single-pass sparse accumulator
)

// The fixed numeric settings of every hierarchy: each variant differs
// only in the algorithm choices of Options.
const (
	theta         float64 = 0.25      // strength threshold
	preSweeps     int     = 1         // smoother sweeps before restriction
	postSweeps    int     = 1         // smoother sweeps after prolongation
	jacobiWeight  float64 = 2.0 / 3.0 // damped-Jacobi weight
	maxLevels     int     = 10
	coarsestSize  int     = 64        // rows at or below which the level is solved directly
	hybridBlocks  int     = 4         // row blocks of the HybridGS smoother
	smoothedOmega float64 = 2.0 / 3.0 // prolongation-smoothing weight of Smoothed
)

// Options selects the algorithms of an AMG hierarchy.
type Options struct {
	Coarsening  Coarsening
	Interp      Interp
	Smoother    Smoother
	Cycle       Cycle
	SpGEMM      SpGEMMKind
	IdentityOpt bool  // use identity-split SpMV for P and R
	Seed        int64 // PMIS tie-break seed
}

// DefaultOptions mirror the Base pressure solver: aggregation coarsening,
// tentative interpolation, Jacobi smoothing, V-cycles, two-pass SpGEMM.
func DefaultOptions() Options {
	return Options{
		Coarsening: Aggregation,
		Interp:     Tentative,
		Smoother:   Jacobi,
		Cycle:      VCycle,
		SpGEMM:     SpGEMMTwoPass,
	}
}

// OptimizedOptions apply the full Section IV recipe: hybrid Gauss-Seidel
// smoothing, extended+i interpolation on a PMIS splitting, single-pass
// SPA SpGEMM and identity-block interpolation SpMV.
func OptimizedOptions() Options {
	o := DefaultOptions()
	o.Coarsening = PMISSplit
	o.Interp = ExtendedI
	o.Smoother = HybridGS
	o.SpGEMM = SpGEMMSPA
	o.IdentityOpt = true
	return o
}

func (o Options) validate() error {
	switch o.Interp {
	case Tentative, Smoothed:
		if o.Coarsening != Aggregation {
			return fmt.Errorf("amg: interpolation %v requires Aggregation coarsening", o.Interp)
		}
	case Direct, ExtendedI:
		if o.Coarsening != PMISSplit {
			return fmt.Errorf("amg: interpolation %v requires PMIS coarsening", o.Interp)
		}
	}
	return nil
}

// Level is one rung of the hierarchy, read-only once Setup returns.
type Level struct {
	A *sparse.CSR
	// op applies A in the cycles and CG: A itself, or on the finest level
	// the operator Setup was given, whose products equal A's bit for bit.
	op     sparse.Operator
	P      *sparse.CSR // prolongation: fine x coarse (nil on coarsest)
	R      *sparse.CSR // restriction: P^T
	PSplit *sparse.IdentitySplit
	RSplit *sparse.IdentitySplit
	diag   []float64
	// finite records that every stored value of A is finite, so that A·0
	// is +0 in every row and a sweep from a zero iterate may skip it.
	finite bool
	// lambdaMax is the D^-1 A spectral bound of the Chebyshev smoother;
	// Setup estimates it when that smoother is selected.
	lambdaMax float64
}

// levelWork holds the working vectors of a cycle's visit to one level,
// sized on first use and reused by every later visit (DESIGN.md §5.13). A
// visit reaches the level below only through its own rc and ec, and a
// K-cycle revisits a level one visit after the other, never nested, so
// no two live vectors share a buffer.
type levelWork struct {
	r, e     []float64    // residual, prolonged correction
	rc, ec   []float64    // restricted residual, coarse correction
	smoother [3][]float64 // Jacobi's A x; hybrid GS's sweep-start iterate; Chebyshev's r, p, A p
	krylov   [4][]float64 // kAccelerate's r, z, p, A p
}

// Hierarchy is a configured AMG preconditioner/solver: the operators,
// transfer operators and factors Setup built, which nothing writes
// afterwards, and a workspace that its cycles (PCG's through
// Precondition) write. The operators are shared; a workspace serves one goroutine
// at a time, and Share hands another goroutine its own.
type Hierarchy struct {
	Levels []*Level
	Opts   Options

	// SetupWork is the roofline work the setup phase would cost at full
	// scale (dominated by the Galerkin SpGEMMs; depends on the kernel
	// choice). CycleWorkEst is the per-cycle solve work.
	SetupWork    cluster.Work
	coarseFactor *denseLU

	work    []levelWork // one per level
	coarseY []float64   // the coarse solve's forward-substitution vector
}

// Share returns a Hierarchy on the same operators with a workspace of its
// own, so that many goroutines can cycle on one Setup's result at once.
func (h *Hierarchy) Share() *Hierarchy {
	s := *h
	s.work, s.coarseY = make([]levelWork, len(h.Levels)), nil
	return &s
}

// Setup builds the hierarchy for a square SPD-like operator. Coarsening
// runs on op's assembled matrix; the finest level's products and
// residuals apply op itself.
func Setup(op sparse.Operator, opts Options) (*Hierarchy, error) {
	a := op.Matrix()
	validateSquare(a, "Setup")
	if err := opts.validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{Opts: opts}
	cur := a
	for len(h.Levels) < maxLevels-1 && cur.Rows > coarsestSize {
		lvl := newLevel(cur)
		strength := Strength(cur, theta)
		// Strength pass streams the matrix once.
		h.SetupWork = h.SetupWork.Add(cluster.Work{Flops: float64(cur.NNZ()), Bytes: 16 * float64(cur.NNZ())})

		var p *sparse.CSR
		switch opts.Coarsening {
		case Aggregation:
			agg, nAgg := Aggregate(cur, strength)
			if nAgg >= cur.Rows || nAgg == 0 {
				break // coarsening stalled
			}
			t := TentativeProlongation(agg, nAgg)
			if opts.Interp == Smoothed {
				p = SmoothProlongation(cur, t, smoothedOmega)
				f, b := sparse.SpGEMMWork(cur, t, h.spgemmPasses())
				h.SetupWork = h.SetupWork.Add(cluster.Work{Flops: f, Bytes: b})
			} else {
				p = t
			}
		case PMISSplit:
			cf := PMIS(cur, strength, opts.Seed)
			if opts.Interp == Direct {
				EnsureInterpolable(strength, cf)
			}
			_, nc := CoarseIndex(cf)
			if nc >= cur.Rows || nc == 0 {
				break
			}
			if opts.Interp == ExtendedI {
				p = ExtendedIInterpolation(cur, strength, cf)
			} else {
				p = DirectInterpolation(cur, strength, cf)
			}
		}
		if p == nil || p.Cols >= cur.Rows || p.Cols == 0 {
			break
		}
		lvl.P = p
		lvl.R = p.Transpose()
		if opts.IdentityOpt {
			lvl.PSplit = sparse.AnalyzeIdentity(p)
			lvl.RSplit = sparse.AnalyzeIdentity(lvl.R)
		}
		// Galerkin product A_c = R A P, the setup-phase hot spot.
		ap := h.mul(cur, p)
		f1, b1 := sparse.SpGEMMWork(cur, p, h.spgemmPasses())
		coarse := h.mul(lvl.R, ap)
		f2, b2 := sparse.SpGEMMWork(lvl.R, ap, h.spgemmPasses())
		h.SetupWork = h.SetupWork.Add(cluster.Work{Flops: f1 + f2, Bytes: b1 + b2})

		if opts.Smoother == Chebyshev {
			lvl.lambdaMax = estimateLambdaMax(lvl)
		}
		h.Levels = append(h.Levels, lvl)
		cur = coarse
	}
	// Coarsest level: dense LU factorisation.
	h.Levels = append(h.Levels, newLevel(cur))
	h.Levels[0].op = op
	h.coarseFactor = factorDense(cur)
	h.work = make([]levelWork, len(h.Levels))
	h.SetupWork = h.SetupWork.Add(cluster.Work{
		Flops: 2.0 / 3.0 * math.Pow(float64(cur.Rows), 3),
		Bytes: 8 * float64(cur.Rows) * float64(cur.Rows),
	})
	return h, nil
}

// newLevel makes the level of operator a, with its diagonal and whether
// its values are all finite.
func newLevel(a *sparse.CSR) *Level {
	finite := true
	for _, v := range a.Val {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			finite = false
			break
		}
	}
	return &Level{A: a, op: a, diag: a.Diag(), finite: finite}
}

func (h *Hierarchy) spgemmPasses() int {
	if h.Opts.SpGEMM == SpGEMMSPA {
		return 1
	}
	return 2
}

func (h *Hierarchy) mul(a, b *sparse.CSR) *sparse.CSR {
	if h.Opts.SpGEMM == SpGEMMSPA {
		return sparse.MulSPA(a, b, 0)
	}
	return sparse.MulTwoPass(a, b)
}

// NumLevels returns the hierarchy depth.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// OperatorComplexity is sum(nnz(A_l)) / nnz(A_0), the standard AMG memory
// and work metric.
func (h *Hierarchy) OperatorComplexity() float64 {
	total := 0.0
	for _, l := range h.Levels {
		total += float64(l.A.NNZ())
	}
	return total / float64(h.Levels[0].A.NNZ())
}

// ---- Smoothers -------------------------------------------------------------

// smooth performs `sweeps` relaxation sweeps of the configured smoother
// on A x = b at the given level. Gauss-Seidel-type smoothers sweep
// forward when pre-smoothing and backward when post-smoothing so the
// overall cycle stays symmetric — required for use inside CG. zero says
// that x is all +0: on a finite level the smoothers that start from the
// residual b - A x then take it as b, which it is bit for bit (each term
// v·(+0) is ±0 and +0 + ±0 is +0), and skip the product.
//
//perf:hotpath
func (h *Hierarchy) smooth(l *Level, w *levelWork, b, x []float64, sweeps int, forward, zero bool) {
	zero = zero && l.finite
	switch h.Opts.Smoother {
	case Jacobi:
		jacobiSweeps(l, w, b, x, sweeps, jacobiWeight, zero)
	case GaussSeidel:
		for s := 0; s < sweeps; s++ {
			gsSweepRange(l, b, x, 0, l.A.Rows, x, forward)
		}
	case HybridGS:
		hybridGSSweeps(l, w, b, x, sweeps, hybridBlocks, forward)
	case Chebyshev:
		chebyshevSmooth(l, w, b, x, 2*sweeps+1, zero)
	}
}

// chebyshevSmooth applies a degree-`deg` Chebyshev polynomial smoother
// targeting the upper part of the diagonally-scaled spectrum
// [lambdaMax/4, lambdaMax] — communication-free within a sweep beyond the
// matrix-vector products, which is why [51] recommends polynomial
// smoothers at extreme core counts. Symmetric by construction (safe
// inside CG). zero means x is +0 and A·x need not be formed.
//
//perf:hotpath
func chebyshevSmooth(l *Level, w *levelWork, b, x []float64, deg int, zero bool) {
	n := l.A.Rows
	lmax := l.lambdaMax * 1.05
	lmin := lmax / 4
	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2
	// Standard Chebyshev iteration on D^-1 A with residual recurrence.
	r := scratch.Floats(&w.smoother[0], n)
	if zero {
		copy(r, b)
	} else {
		l.op.Residual(b, x, r)
	}
	for i := range r {
		if d := l.diag[i]; d != 0 {
			r[i] /= d
		}
	}
	p := scratch.Floats(&w.smoother[1], n)
	alpha := 1.0 / theta
	for i := range p {
		p[i] = alpha * r[i]
	}
	ap := scratch.Floats(&w.smoother[2], n)
	for k := 0; k < deg; k++ {
		for i := range x {
			x[i] += p[i]
		}
		// r <- r - D^-1 A p
		l.op.MulVec(p, ap)
		for i := range r {
			v := ap[i]
			if d := l.diag[i]; d != 0 {
				v /= d
			}
			r[i] -= v
		}
		beta := (delta * alpha / 2) * (delta * alpha / 2)
		alpha = 1.0 / (theta - beta/alpha)
		for i := range p {
			p[i] = alpha*r[i] + beta*p[i]
		}
	}
}

// estimateLambdaMax runs a few power iterations on D^-1 A to bound the
// spectrum for the Chebyshev smoother.
func estimateLambdaMax(l *Level) float64 {
	n := l.A.Rows
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + float64(i%3) // deterministic non-degenerate start
	}
	w := make([]float64, n)
	lambda := 1.0
	for it := 0; it < 12; it++ {
		l.A.MulVec(v, w)
		norm := 0.0
		for i := range w {
			if d := l.diag[i]; d != 0 {
				w[i] /= d
			}
			norm += w[i] * w[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 2 // fallback: Jacobi-scaled Laplacians are <= 2
		}
		lambda = norm
		for i := range v {
			v[i] = w[i] / norm
		}
	}
	return lambda
}

// jacobiSweeps runs damped-Jacobi sweeps, each forming b − A x in one
// pass; zero means x is +0, so the first sweep's A x is +0 and it adds
// w b / D onto x instead.
//
//perf:hotpath
func jacobiSweeps(l *Level, lw *levelWork, b, x []float64, sweeps int, w float64, zero bool) {
	n := l.A.Rows
	r := scratch.Floats(&lw.smoother[0], n)
	for s := 0; s < sweeps; s++ {
		if s == 0 && zero {
			for i := 0; i < n; i++ {
				if d := l.diag[i]; d != 0 {
					x[i] += w * b[i] / d
				}
			}
			continue
		}
		l.op.Residual(b, x, r)
		for i := 0; i < n; i++ {
			d := l.diag[i]
			if d == 0 {
				continue
			}
			x[i] += w * r[i] / d
		}
	}
}

// gsSweepRange runs one Gauss-Seidel sweep over rows [lo,hi), reading
// off-range unknowns from xOld (pass x itself for classic GS). forward
// selects the sweep direction.
//
//perf:hotpath
func gsSweepRange(l *Level, b, x []float64, lo, hi int, xOld []float64, forward bool) {
	a := l.A
	i, step := lo, 1
	if !forward {
		i, step = hi-1, -1
	}
	for ; i >= lo && i < hi; i += step {
		d := l.diag[i]
		if d == 0 {
			continue
		}
		s := b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j == i {
				continue
			}
			if j >= lo && j < hi {
				s -= a.Val[k] * x[j]
			} else {
				s -= a.Val[k] * xOld[j]
			}
		}
		x[i] = s / d
	}
}

// hybridGSSweeps is the hybrid smoother of Baker et al. [51]: Gauss-
// Seidel within each of `blocks` contiguous row blocks (one per parallel
// task), Jacobi across blocks — off-block unknowns come from the sweep's
// starting iterate.
//
//perf:hotpath
func hybridGSSweeps(l *Level, w *levelWork, b, x []float64, sweeps, blocks int, forward bool) {
	n := l.A.Rows
	if blocks > n {
		blocks = n
	}
	if blocks < 1 {
		blocks = 1
	}
	xOld := scratch.Floats(&w.smoother[0], n)
	for s := 0; s < sweeps; s++ {
		copy(xOld, x)
		for blk := 0; blk < blocks; blk++ {
			lo := blk * n / blocks
			hi := (blk + 1) * n / blocks
			gsSweepRange(l, b, x, lo, hi, xOld, forward)
		}
	}
}

// ---- Cycles ----------------------------------------------------------------

// Precondition sets x to one multigrid cycle applied to b from a zero
// iterate, whatever x held before: the hierarchy as a preconditioner.
// The first Jacobi or Chebyshev sweep of each finite level skips the
// product with the zero iterate; CycleWork still charges it.
func (h *Hierarchy) Precondition(b, x []float64) {
	clear(x)
	h.cycle(0, b, x, true)
}

// cycle runs one cycle from the given level down; zero says that x is
// all +0, as it is for every coarse visit.
//
//perf:hotpath
func (h *Hierarchy) cycle(level int, b, x []float64, zero bool) {
	l, w := h.Levels[level], &h.work[level]
	if level == len(h.Levels)-1 {
		h.coarseFactor.solve(b, x, scratch.Floats(&h.coarseY, l.A.Rows))
		return
	}
	h.smooth(l, w, b, x, preSweeps, true, zero)
	// Residual and restriction.
	n := l.A.Rows
	r := scratch.Floats(&w.r, n)
	l.op.Residual(b, x, r)
	nc := l.P.Cols
	rc := scratch.Floats(&w.rc, nc)
	if l.RSplit != nil {
		l.RSplit.MulVec(r, rc)
	} else {
		l.R.MulVec(r, rc)
	}
	ec := scratch.Floats(&w.ec, nc)
	clear(ec) // the coarse solve starts from zero
	if h.Opts.Cycle == KCycle && level+1 < len(h.Levels)-1 {
		h.kAccelerate(level+1, rc, ec)
	} else {
		h.cycle(level+1, rc, ec, true)
	}
	// Prolongate and correct.
	e := scratch.Floats(&w.e, n)
	if l.PSplit != nil {
		l.PSplit.MulVec(ec, e)
	} else {
		l.P.MulVec(ec, e)
	}
	for i := range x {
		x[i] += e[i]
	}
	h.smooth(l, w, b, x, postSweeps, false, false)
}

// kAccelerate solves the coarse system with two steps of flexible CG
// preconditioned by the recursive cycle — the K-cycle of [50].
//
//perf:hotpath
func (h *Hierarchy) kAccelerate(level int, b, x []float64) {
	l, w := h.Levels[level], &h.work[level]
	n := l.A.Rows
	r := scratch.Floats(&w.krylov[0], n)
	copy(r, b) // x starts at zero
	z := scratch.Floats(&w.krylov[1], n)
	p := scratch.Floats(&w.krylov[2], n)
	ap := scratch.Floats(&w.krylov[3], n)
	for it := 0; it < 2; it++ {
		clear(z)
		h.cycle(level, r, z, true)
		if it == 0 {
			copy(p, z)
		} else {
			// Flexible CG beta via Polak-Ribiere-like update.
			num, den := 0.0, 0.0
			for i := range z {
				num += z[i] * r[i]
				den += p[i] * ap[i]
			}
			if den == 0 {
				copy(p, z)
			} else {
				beta := num / den
				for i := range p {
					p[i] = z[i] + beta*p[i]
				}
			}
		}
		l.op.MulVec(p, ap)
		num, den := 0.0, 0.0
		for i := range p {
			num += p[i] * r[i]
			den += p[i] * ap[i]
		}
		if den == 0 {
			return
		}
		alpha := num / den
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
	}
}

// CycleWork estimates the roofline work of one cycle at full scale:
// smoother sweeps and the residual cost one SpMV each per level, plus the
// transfer operators (with the identity-block savings when enabled) and
// the dense coarse solve.
func (h *Hierarchy) CycleWork() cluster.Work {
	var w cluster.Work
	sweeps := float64(preSweeps + postSweeps)
	cycleMult := 1.0
	if h.Opts.Cycle == KCycle {
		cycleMult = 2.0 // two coarse visits per level
	}
	levelMult := 1.0
	for i, l := range h.Levels {
		f, b := l.A.MulVecWork()
		if i == len(h.Levels)-1 {
			n := float64(l.A.Rows)
			w = w.Add(cluster.Work{Flops: 2 * n * n, Bytes: 8 * n * n}.Scale(levelMult))
			break
		}
		w = w.Add(cluster.Work{Flops: f * (sweeps + 1), Bytes: b * (sweeps + 1)}.Scale(levelMult))
		var pf, pb float64
		if l.PSplit != nil {
			f1, b1 := l.PSplit.Work()
			f2, b2 := l.RSplit.Work()
			pf, pb = f1+f2, b1+b2
		} else {
			f1, b1 := l.P.MulVecWork()
			f2, b2 := l.R.MulVecWork()
			pf, pb = f1+f2, b1+b2
		}
		w = w.Add(cluster.Work{Flops: pf, Bytes: pb}.Scale(levelMult))
		levelMult *= cycleMult
	}
	return w
}

// ---- Dense coarse solve ----------------------------------------------------

// denseLU is the coarsest operator's factorisation, read-only once built.
type denseLU struct {
	n    int
	lu   []float64 // row-major
	perm []int
}

func factorDense(a *sparse.CSR) *denseLU {
	n := a.Rows
	f := &denseLU{n: n, lu: make([]float64, n*n), perm: make([]int, n)}
	for i := 0; i < n; i++ {
		f.perm[i] = i
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			f.lu[i*n+a.ColIdx[k]] = a.Val[k]
		}
	}
	// LU with partial pivoting.
	for col := 0; col < n; col++ {
		// Pivot.
		piv, pmax := col, math.Abs(f.lu[f.perm[col]*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(f.lu[f.perm[r]*n+col]); v > pmax {
				piv, pmax = r, v
			}
		}
		f.perm[col], f.perm[piv] = f.perm[piv], f.perm[col]
		prow := f.perm[col]
		d := f.lu[prow*n+col]
		if d == 0 {
			continue // singular direction; leave (consistent RHS assumed)
		}
		for r := col + 1; r < n; r++ {
			row := f.perm[r]
			m := f.lu[row*n+col] / d
			f.lu[row*n+col] = m
			for c := col + 1; c < n; c++ {
				f.lu[row*n+c] -= m * f.lu[prow*n+c]
			}
		}
	}
	return f
}

// solve writes the solution into x; y is its forward-substitution
// vector, of length n.
//
//perf:hotpath
func (f *denseLU) solve(b, x, y []float64) {
	n := f.n
	// Forward substitution on permuted rows.
	for i := 0; i < n; i++ {
		s := b[f.perm[i]]
		row := f.perm[i]
		for j := 0; j < i; j++ {
			s -= f.lu[row*n+j] * y[j]
		}
		y[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.perm[i]
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[row*n+j] * x[j]
		}
		d := f.lu[row*n+i]
		if d == 0 {
			x[i] = 0
			continue
		}
		x[i] = s / d
	}
}
