package amg

import (
	"fmt"
	"math"
	"testing"
	"time"

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
		_, err := mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster(), Watchdog: 60 * time.Second},
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
		_, err := mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster(), Watchdog: 60 * time.Second},
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
	st, err := mpi.Run(2, mpi.Config{Machine: cluster.SmallCluster(), Watchdog: 30 * time.Second},
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
