package amg

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/sparse"
)

func TestDistSolverMatchesSerialSolution(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	n := a.Rows
	b := randomRHS(n, 11)
	// Serial reference.
	h, err := Setup(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, n)
	if res := h.PCG(b, ref, 1e-10, 500); !res.Converged {
		t.Fatalf("serial reference did not converge: %+v", res)
	}

	for _, p := range []int{1, 2, 4, 7} {
		solution := make([]float64, n)
		_, err := mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster()},
			func(c *mpi.Comm) error {
				d := sparse.NewDistFromGlobal(c, a, 50)
				s, err := NewDistSolver(d, DefaultOptions())
				if err != nil {
					return err
				}
				x := make([]float64, d.OwnedRows())
				res := s.Solve(b[d.RowLo:d.RowHi], x, 1e-10, 500)
				if !res.Converged {
					return fmt.Errorf("p=%d rank %d: not converged: %+v", p, c.Rank(), res)
				}
				// Collect at rank 0 for comparison.
				all := c.Allgather(x)
				if c.Rank() == 0 {
					i := 0
					for _, part := range all {
						copy(solution[i:], part)
						i += len(part)
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if math.Abs(solution[i]-ref[i]) > 1e-6 {
				t.Fatalf("p=%d: solution differs at %d: %v vs %v", p, i, solution[i], ref[i])
			}
		}
	}
}

func TestDistSolverIterationsGrowWithRanks(t *testing.T) {
	// Block-Jacobi preconditioning weakens as blocks shrink: iteration
	// counts must not decrease with rank count. This is the physical root
	// of the pressure-field parallel-efficiency decay in Fig. 5b.
	a := sparse.Poisson2D(16, 16)
	b := randomRHS(a.Rows, 12)
	iters := func(p int) int {
		var out int
		_, err := mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster()},
			func(c *mpi.Comm) error {
				d := sparse.NewDistFromGlobal(c, a, 50)
				s, err := NewDistSolver(d, DefaultOptions())
				if err != nil {
					return err
				}
				x := make([]float64, d.OwnedRows())
				res := s.Solve(b[d.RowLo:d.RowHi], x, 1e-8, 500)
				if c.Rank() == 0 {
					out = res.Iterations
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	i1, i8 := iters(1), iters(8)
	if i8 < i1 {
		t.Errorf("iterations decreased with ranks: %d @1 vs %d @8", i1, i8)
	}
}

func TestDistSolverChargesSetupWork(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	st, err := mpi.Run(2, mpi.Config{Machine: cluster.SmallCluster()},
		func(c *mpi.Comm) error {
			d := sparse.NewDistFromGlobal(c, a, 50)
			_, err := NewDistSolver(d, DefaultOptions())
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgCompute() <= 0 {
		t.Error("AMG setup charged no compute time")
	}
}

// referenceDistSolve is DistSolver.Solve written out on its own: fresh
// vectors per call, the inner products and norms of sparse.Dist, and the
// vector-update charge between the x/r update and the residual norm. The
// one CG is held to it on the distributed system.
func referenceDistSolve(s *DistSolver, b, x []float64, tol float64, maxIter int) Result {
	d := s.D
	n := d.OwnedRows()
	r := make([]float64, n)
	d.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := d.Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	z := make([]float64, n)
	s.precondition(r, z)
	p := make([]float64, n)
	copy(p, z)
	ap := make([]float64, n)
	rz := d.Dot(r, z)
	for it := 1; it <= maxIter; it++ {
		d.MulVec(p, ap)
		pap := d.Dot(p, ap)
		if pap == 0 {
			return Result{Iterations: it, Residual: d.Norm2(r) / bnorm}
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		d.Comm.Compute(cluster.Work{Flops: 4 * float64(n) * d.WorkScale, Bytes: 48 * float64(n) * d.WorkScale})
		res := d.Norm2(r) / bnorm
		if res < tol {
			return Result{Iterations: it, Residual: res, Converged: true}
		}
		s.precondition(r, z)
		rzNew := d.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return Result{Iterations: maxIter, Residual: d.Norm2(r) / bnorm}
}

// TestDistSolveMatchesReference: on 1 to 4 ranks, two solves in a row on
// one DistSolver (the second from the first's iterate, on another
// right-hand side) leave the iterate bits, Results and run Stats — every
// rank clock and compute/comm split — that referenceDistSolve leaves. A
// solve stopped by its iteration cap leaves the same iterate and Result;
// its clocks are not compared, since the reference recomputes the final
// residual with one more inner product.
func TestDistSolveMatchesReference(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	b1, b2 := randomRHS(a.Rows, 21), randomRHS(a.Rows, 22)
	type solve func(s *DistSolver, b, x []float64, tol float64, maxIter int) Result
	run := func(p, maxIter int, f solve) (*mpi.Stats, [][]uint64, [][2]Result) {
		bits, results := make([][]uint64, p), make([][2]Result, p)
		st, err := mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster()},
			func(c *mpi.Comm) error {
				d := sparse.NewDistFromGlobal(c, a, 50)
				s, err := NewDistSolver(d, DefaultOptions())
				if err != nil {
					return err
				}
				x := make([]float64, d.OwnedRows())
				for k, b := range [][]float64{b1, b2} {
					results[c.Rank()][k] = f(s, b[d.RowLo:d.RowHi], x, 1e-8, maxIter)
				}
				for _, v := range x {
					bits[c.Rank()] = append(bits[c.Rank()], math.Float64bits(v))
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return st, bits, results
	}
	for p := 1; p <= 4; p++ {
		for _, maxIter := range []int{500, 3} {
			refSt, refBits, refRes := run(p, maxIter, referenceDistSolve)
			st, bits, res := run(p, maxIter, (*DistSolver).Solve)
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("p=%d maxIter=%d: Results %+v, reference %+v", p, maxIter, res, refRes)
			}
			if !reflect.DeepEqual(bits, refBits) {
				t.Errorf("p=%d maxIter=%d: iterate bits differ from the reference", p, maxIter)
			}
			if maxIter == 500 && !reflect.DeepEqual(st, refSt) {
				t.Errorf("p=%d: Stats differ from the reference: clocks %v, reference %v", p, st.Clocks, refSt.Clocks)
			}
		}
	}
}

// TestDistSolveAllocationFlat doubles the iteration count of a 4-rank
// DistSolver.Solve and bounds what the extra iterations allocate per
// rank and iteration. The solver's CG vectors and the Dist's halo
// operand, send buffers and receive slots are kept, and each received
// halo payload is released to feed the rank's next send, so what is left
// does not scale with the rows: about 0–20 B per rank-iteration in plain
// builds and about 90 B in race builds. The bound, 256 B, holds in both. With the receive slots made
// per exchange plain builds log about 40–85 B, and with the operand,
// send buffers and unreleased payloads made afresh per product the same
// solve costs about 6.2 kB per rank-iteration.
func TestDistSolveAllocationFlat(t *testing.T) {
	a := sparse.Poisson2D(48, 48)
	b := randomRHS(a.Rows, 23)
	const ranks, iters = 4, 20
	allocated := func(maxIter int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := mpi.Run(ranks, mpi.Config{Machine: cluster.SmallCluster()},
			func(c *mpi.Comm) error {
				d := sparse.NewDistFromGlobal(c, a, 50)
				s, err := NewDistSolver(d, DefaultOptions())
				if err != nil {
					return err
				}
				x := make([]float64, d.OwnedRows())
				if res := s.Solve(b[d.RowLo:d.RowHi], x, 0, maxIter); res.Iterations != maxIter {
					return fmt.Errorf("rank %d stopped after %d of %d iterations", c.Rank(), res.Iterations, maxIter)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := allocated(iters), allocated(2*iters)
	perRankIter := (float64(long) - float64(short)) / (ranks * iters)
	t.Logf("%.0f bytes per rank-iteration", perRankIter)
	if perRankIter > 256 {
		t.Errorf("the second %d iterations allocate %.0f bytes per rank-iteration, bound 256", iters, perRankIter)
	}
}

// TestCGExactSolveConverges: a system solved exactly — b = 0 from x = 0,
// whose first search direction is zero — reports convergence at residual
// 0 through Hierarchy.PCG and through DistSolver.Solve on 1 and 3 ranks.
func TestCGExactSolveConverges(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	want := Result{Iterations: 1, Residual: 0, Converged: true}
	h, err := Setup(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res := h.PCG(make([]float64, a.Rows), make([]float64, a.Rows), 1e-8, 100); res != want {
		t.Errorf("Hierarchy.PCG: %+v, want %+v", res, want)
	}
	for _, p := range []int{1, 3} {
		_, err := mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster()},
			func(c *mpi.Comm) error {
				d := sparse.NewDistFromGlobal(c, a, 50)
				s, err := NewDistSolver(d, DefaultOptions())
				if err != nil {
					return err
				}
				n := d.OwnedRows()
				if res := s.Solve(make([]float64, n), make([]float64, n), 1e-8, 100); res != want {
					return fmt.Errorf("DistSolver.Solve on %d ranks: %+v, want %+v", p, res, want)
				}
				return nil
			})
		if err != nil {
			t.Error(err)
		}
	}
}
