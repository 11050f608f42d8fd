package amg

import (
	"math"
	"math/rand"
	"testing"

	"cpx/internal/scratch"
	"cpx/internal/sparse"
)

func randomRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func residualNorm(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(x, r)
	s := 0.0
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestStrengthPoisson(t *testing.T) {
	a := sparse.Poisson2D(5, 5)
	s := Strength(a, 0.25)
	// Interior point 12 has 4 equal strong neighbours.
	if len(s[12]) != 4 {
		t.Errorf("interior strong set size %d, want 4", len(s[12]))
	}
	// Corner has 2.
	if len(s[0]) != 2 {
		t.Errorf("corner strong set size %d, want 2", len(s[0]))
	}
}

func TestStrengthThresholdFilters(t *testing.T) {
	// Anisotropic: strong in x (-10), weak in y (-0.1).
	a := sparse.FromCOO(3, 3,
		[]int{0, 0, 0, 1, 1, 2, 2},
		[]int{0, 1, 2, 0, 1, 0, 2},
		[]float64{20.2, -10, -0.1, -10, 20.2, -0.1, 20.2})
	s := Strength(a, 0.25)
	if len(s[0]) != 1 || s[0][0] != 1 {
		t.Errorf("weak connection not filtered: %v", s[0])
	}
}

func TestAggregateCoversAllPoints(t *testing.T) {
	a := sparse.Poisson2D(8, 8)
	s := Strength(a, 0.25)
	agg, n := Aggregate(a, s)
	if n <= 0 || n >= a.Rows {
		t.Fatalf("aggregate count %d out of (0,%d)", n, a.Rows)
	}
	seen := make([]bool, n)
	for i, g := range agg {
		if g < 0 || g >= n {
			t.Fatalf("point %d has invalid aggregate %d", i, g)
		}
		seen[g] = true
	}
	for g, ok := range seen {
		if !ok {
			t.Errorf("aggregate %d empty", g)
		}
	}
}

func TestPMISProducesValidSplitting(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	s := Strength(a, 0.25)
	cf := PMIS(a, s, 1)
	nc := 0
	for _, v := range cf {
		if v == CPoint {
			nc++
		}
	}
	if nc == 0 || nc >= a.Rows {
		t.Fatalf("PMIS selected %d of %d C-points", nc, a.Rows)
	}
	// Independence: no two adjacent (strongly) C points.
	for i, si := range s {
		if cf[i] != CPoint {
			continue
		}
		for _, j := range si {
			if cf[j] == CPoint {
				// PMIS allows this only across non-symmetric strength;
				// for the symmetric Poisson graph it must not happen.
				t.Fatalf("adjacent C-points %d,%d", i, j)
			}
		}
	}
}

func TestPMISDeterministicPerSeed(t *testing.T) {
	a := sparse.Poisson2D(7, 7)
	s := Strength(a, 0.25)
	c1 := PMIS(a, s, 5)
	c2 := PMIS(a, s, 5)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("PMIS not deterministic for fixed seed")
		}
	}
}

func TestEnsureInterpolable(t *testing.T) {
	a := sparse.Poisson1D(6)
	s := Strength(a, 0.25)
	// Force a hopeless splitting: all F.
	cf := make([]CF, 6)
	promoted := EnsureInterpolable(s, cf)
	if promoted == 0 {
		t.Fatal("nothing promoted from an all-F splitting")
	}
	// Now every remaining F-point must have a strong C neighbour.
	for i, v := range cf {
		if v == CPoint || len(s[i]) == 0 {
			continue
		}
		ok := false
		for _, j := range s[i] {
			if cf[j] == CPoint {
				ok = true
			}
		}
		if !ok {
			t.Errorf("F-point %d still uninterpolable", i)
		}
	}
}

func TestTentativeProlongationPartition(t *testing.T) {
	p := TentativeProlongation([]int{0, 0, 1, 1, 2}, 3)
	if p.Rows != 5 || p.Cols != 3 || p.NNZ() != 5 {
		t.Fatalf("tentative shape wrong: %dx%d nnz %d", p.Rows, p.Cols, p.NNZ())
	}
	// Column sums = aggregate sizes.
	colSum := make([]float64, 3)
	for i := 0; i < p.Rows; i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			colSum[p.ColIdx[k]] += p.Val[k]
		}
	}
	if colSum[0] != 2 || colSum[1] != 2 || colSum[2] != 1 {
		t.Errorf("column sums %v", colSum)
	}
}

func TestInterpolationRowSumsToOne(t *testing.T) {
	// For constant-preserving interpolation, each F-row of P sums to 1 on
	// a Laplacian with zero row sums (interior rows).
	a := sparse.Poisson1D(32)
	s := Strength(a, 0.25)
	cf := PMIS(a, s, 2)
	EnsureInterpolable(s, cf)
	for _, p := range []*sparse.CSR{
		DirectInterpolation(a, s, cf),
		ExtendedIInterpolation(a, s, cf),
	} {
		for i := 1; i < p.Rows-1; i++ { // interior rows only
			sum := 0.0
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				sum += p.Val[k]
			}
			if p.RowPtr[i+1] > p.RowPtr[i] && math.Abs(sum-1) > 0.5 {
				t.Errorf("row %d interpolation sum %v far from 1", i, sum)
			}
		}
	}
}

func TestSetupBuildsMultipleLevels(t *testing.T) {
	a := sparse.Poisson2D(32, 32)
	h, err := Setup(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 3 {
		t.Errorf("only %d levels for 1024 unknowns", h.NumLevels())
	}
	// Coarsest within threshold.
	last := h.Levels[len(h.Levels)-1].A
	if last.Rows > coarsestSize*4 {
		t.Errorf("coarsest level still has %d rows", last.Rows)
	}
	if oc := h.OperatorComplexity(); oc < 1 || oc > 3 {
		t.Errorf("operator complexity %v out of sane range", oc)
	}
	if h.SetupWork.Flops <= 0 || h.SetupWork.Bytes <= 0 {
		t.Error("setup work not accounted")
	}
}

func TestSetupRejectsBadCombos(t *testing.T) {
	o := DefaultOptions()
	o.Interp = ExtendedI // with Aggregation: invalid
	if _, err := Setup(sparse.Poisson1D(16), o); err == nil {
		t.Error("ExtendedI+Aggregation accepted")
	}
	o2 := OptimizedOptions()
	o2.Interp = Tentative // with PMIS: invalid
	if _, err := Setup(sparse.Poisson1D(16), o2); err == nil {
		t.Error("Tentative+PMIS accepted")
	}
}

// solveConfigs enumerates the option combinations that must all converge.
func solveConfigs() map[string]Options {
	base := DefaultOptions()
	smoothedAgg := DefaultOptions()
	smoothedAgg.Interp = Smoothed
	direct := DefaultOptions()
	direct.Coarsening = PMISSplit
	direct.Interp = Direct
	extI := DefaultOptions()
	extI.Coarsening = PMISSplit
	extI.Interp = ExtendedI
	gs := DefaultOptions()
	gs.Smoother = GaussSeidel
	hybrid := DefaultOptions()
	hybrid.Smoother = HybridGS
	kcyc := DefaultOptions()
	kcyc.Interp = Smoothed
	kcyc.Cycle = KCycle
	opt := OptimizedOptions()
	return map[string]Options{
		"base-aggregation": base,
		"smoothed-agg":     smoothedAgg,
		"pmis-direct":      direct,
		"pmis-extended+i":  extI,
		"gauss-seidel":     gs,
		"hybrid-gs":        hybrid,
		"k-cycle":          kcyc,
		"fully-optimized":  opt,
	}
}

func TestPCGConvergesAllConfigs(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	b := randomRHS(a.Rows, 3)
	for name, opts := range solveConfigs() {
		h, err := Setup(a, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := make([]float64, a.Rows)
		res := h.PCG(b, x, 1e-8, 200)
		if !res.Converged {
			t.Errorf("%s: PCG did not converge: %+v", name, res)
			continue
		}
		if rn := residualNorm(a, b, x); rn > 1e-5 {
			t.Errorf("%s: residual %v too large", name, rn)
		}
		if res.Iterations > 100 {
			t.Errorf("%s: %d iterations is not multigrid-like", name, res.Iterations)
		}
	}
}

func TestStationarySolveConverges(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b := randomRHS(a.Rows, 4)
	o := DefaultOptions()
	o.Interp = Smoothed
	h, err := Setup(a, o)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	res := h.Solve(b, x, 1e-8, 100)
	if !res.Converged {
		t.Fatalf("stationary AMG did not converge: %+v", res)
	}
}

func TestSmoothedBeatsTentative(t *testing.T) {
	a := sparse.Poisson2D(32, 32)
	b := randomRHS(a.Rows, 5)
	iters := func(o Options) int {
		h, err := Setup(a, o)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		return h.PCG(b, x, 1e-8, 300).Iterations
	}
	plain := DefaultOptions()
	sm := DefaultOptions()
	sm.Interp = Smoothed
	if it1, it2 := iters(sm), iters(plain); it1 > it2 {
		t.Errorf("smoothed aggregation (%d iters) worse than tentative (%d)", it1, it2)
	}
}

func TestExtendedIBeatsOrMatchesDirect(t *testing.T) {
	a := sparse.Poisson3D(8, 8, 8)
	b := randomRHS(a.Rows, 6)
	iters := func(interp Interp) int {
		o := DefaultOptions()
		o.Coarsening = PMISSplit
		o.Interp = interp
		h, err := Setup(a, o)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		res := h.PCG(b, x, 1e-8, 300)
		if !res.Converged {
			t.Fatalf("interp %v did not converge", interp)
		}
		return res.Iterations
	}
	de := iters(Direct)
	ei := iters(ExtendedI)
	if ei > de+2 {
		t.Errorf("extended+i (%d iters) clearly worse than direct (%d)", ei, de)
	}
}

func TestIdentityOptDoesNotChangeResults(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b := randomRHS(a.Rows, 7)
	run := func(idOpt bool) []float64 {
		o := DefaultOptions()
		o.Coarsening = PMISSplit
		o.Interp = Direct
		o.IdentityOpt = idOpt
		h, err := Setup(a, o)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		h.PCG(b, x, 1e-10, 200)
		return x
	}
	x1, x2 := run(false), run(true)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8 {
			t.Fatalf("identity-split changed the solution at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestSpGEMMKindDoesNotChangeHierarchy(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	o1 := DefaultOptions()
	o1.SpGEMM = SpGEMMTwoPass
	o2 := DefaultOptions()
	o2.SpGEMM = SpGEMMSPA
	h1, err1 := Setup(a, o1)
	h2, err2 := Setup(a, o2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if h1.NumLevels() != h2.NumLevels() {
		t.Fatalf("level counts differ: %d vs %d", h1.NumLevels(), h2.NumLevels())
	}
	for l := range h1.Levels {
		if !h1.Levels[l].A.EqualWithin(h2.Levels[l].A, 1e-12) {
			t.Fatalf("level %d operators differ between SpGEMM kernels", l)
		}
	}
	// SPA charges fewer streamed bytes in setup (one pass, not two).
	if !(h2.SetupWork.Bytes < h1.SetupWork.Bytes) {
		t.Error("SPA setup should charge fewer bytes than two-pass")
	}
}

func TestCycleWorkPositiveAndOrdered(t *testing.T) {
	a := sparse.Poisson2D(24, 24)
	hBase, _ := Setup(a, DefaultOptions())
	kOpts := DefaultOptions()
	kOpts.Cycle = KCycle
	hK, _ := Setup(a, kOpts)
	wV := hBase.CycleWork()
	wK := hK.CycleWork()
	if wV.Flops <= 0 {
		t.Fatal("V-cycle work not positive")
	}
	if !(wK.Flops > wV.Flops) {
		t.Error("K-cycle should cost more flops per cycle than V-cycle")
	}
}

func TestDenseLUFactorSolve(t *testing.T) {
	a := sparse.Poisson1D(10)
	f := factorDense(a)
	b := randomRHS(10, 8)
	x := make([]float64, 10)
	f.solve(b, x, make([]float64, 10))
	if rn := residualNorm(a, b, x); rn > 1e-10 {
		t.Errorf("dense LU residual %v", rn)
	}
}

func TestHybridGSBlocksConsistency(t *testing.T) {
	// HybridGS with 1 block is exactly Gauss-Seidel.
	a := sparse.Poisson1D(20)
	lvl := &Level{A: a, diag: a.Diag()}
	b := randomRHS(20, 9)
	x1 := make([]float64, 20)
	x2 := make([]float64, 20)
	hybridGSSweeps(lvl, &levelWork{}, b, x1, 2, 1, true)
	for s := 0; s < 2; s++ {
		gsSweepRange(lvl, b, x2, 0, 20, x2, true)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-14 {
			t.Fatalf("hybrid GS(1 block) != GS at %d", i)
		}
	}
}

func TestSolveSingularDirectionSafe(t *testing.T) {
	// A matrix with an empty row/column (isolated point) must not crash
	// setup or smoothing (diag zero guarded).
	a := sparse.FromCOO(3, 3, []int{0, 0, 1, 1}, []int{0, 1, 0, 1}, []float64{2, -1, -1, 2})
	// Point 2 fully isolated (no entries).
	h, err := Setup(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	h.Solve([]float64{1, 1, 0}, x, 1e-10, 50)
	if math.IsNaN(x[0]) || math.IsNaN(x[2]) {
		t.Error("NaN from isolated point")
	}
}

func TestChebyshevSmootherConverges(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b := randomRHS(a.Rows, 14)
	o := DefaultOptions()
	o.Smoother = Chebyshev
	h, err := Setup(a, o)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	res := h.PCG(b, x, 1e-8, 200)
	if !res.Converged {
		t.Fatalf("Chebyshev-smoothed PCG did not converge: %+v", res)
	}
	if rn := residualNorm(a, b, x); rn > 1e-5 {
		t.Errorf("residual %v too large", rn)
	}
}

func TestEstimateLambdaMax(t *testing.T) {
	// D^-1 A for the 1-D Poisson matrix has spectrum in (0, 2).
	a := sparse.Poisson1D(64)
	l := &Level{A: a, diag: a.Diag()}
	lam := estimateLambdaMax(l)
	if lam < 1.5 || lam > 2.05 {
		t.Errorf("lambda max estimate %v outside (1.5, 2.05)", lam)
	}
}

// Solve runs stationary AMG iteration (one cycle per step) on A x = b
// until the relative residual drops below tol or maxIter cycles elapse,
// and returns the residual its last cycle left.
func (h *Hierarchy) Solve(b, x []float64, tol float64, maxIter int) Result {
	a := h.Levels[0].A
	// The finest level's cycle residual is dead once a cycle returns, so
	// the iteration's residual lives in its vector.
	r := scratch.Floats(&h.work[0].r, a.Rows)
	bnorm := norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	res := 0.0
	for it := 1; it <= maxIter; it++ {
		h.ApplyCycle(b, x)
		a.Residual(b, x, r)
		res = norm2(r) / bnorm
		if res < tol {
			return Result{Iterations: it, Residual: res, Converged: true}
		}
	}
	if maxIter < 1 {
		a.Residual(b, x, r)
		res = norm2(r) / bnorm
	}
	return Result{Iterations: maxIter, Residual: res}
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// ApplyCycle runs one multigrid cycle on the finest level, improving x in
// place for A x = b from whatever x holds.
func (h *Hierarchy) ApplyCycle(b, x []float64) {
	h.cycle(0, b, x, false)
}
