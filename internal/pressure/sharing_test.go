package pressure

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cpx/internal/amg"
	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/sparse"
)

// buildOwnOperator gives the rank what New built for it before the ranks
// of a run shared their set-up state: an operator and a hierarchy of its
// own, made by the same calls. It is the reference the shared build is
// compared against.
func (s *Solver) buildOwnOperator() error {
	s.grid = sparse.NewStencil3D(s.dims.NI, s.dims.NJ, s.dims.NK)
	h, err := amg.Setup(s.grid, s.hier.Opts)
	s.hier = h
	return err
}

// sharingRun runs conf on 12 capped ranks with event tracing on and
// returns the run's Stats, each rank's state digest and its solver.
func sharingRun(t *testing.T, conf Config, perRank bool) (*mpi.Stats, []uint64, []*Solver) {
	t.Helper()
	const ranks = 12
	digests, solvers := make([]uint64, ranks), make([]*Solver, ranks)
	st, err := mpi.Run(ranks, mpi.Config{Machine: cluster.SmallCluster(), Trace: true}, func(c *mpi.Comm) error {
		s, err := New(c, conf, Production())
		if err == nil && perRank {
			err = s.buildOwnOperator()
		}
		if err != nil {
			return err
		}
		for i := 0; i < conf.Steps; i++ {
			s.Step()
		}
		d := fault.NewDigest()
		for _, f := range [][]float64{s.u, s.pcorr} {
			d.Floats(f)
		}
		d.Int(s.LastIterations)
		digests[c.Rank()], solvers[c.Rank()] = d.Sum64(), s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, digests, solvers
}

// TestSharedSetupMatchesPerRankBuild: capped ranks cycling in their own
// workspaces on one shared operator and hierarchy report exactly what
// they report when each builds its own — elapsed, per-rank clocks and
// compute/comm split, timelines, comm matrix and final state digests —
// for both variants, at GOMAXPROCS 1 and 2. Under -race the same runs
// prove that nothing writes the shared operators.
func TestSharedSetupMatchesPerRankBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range []Variant{Base, Optimized} {
		conf := Config{MeshCells: 2_000_000, Steps: 2, Variant: v, Seed: 3}
		refStats, refDigests, refSolvers := sharingRun(t, conf, true)
		if refSolvers[0].grid == refSolvers[1].grid || refSolvers[0].hier.Levels[0] == refSolvers[1].hier.Levels[0] {
			t.Fatalf("%v: the per-rank reference shares its operator", v)
		}
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/GOMAXPROCS=%d", v, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				st, digests, solvers := sharingRun(t, conf, false)
				if !reflect.DeepEqual(st, refStats) {
					t.Errorf("Stats differ from the per-rank reference: elapsed %v vs %v", st.Elapsed, refStats.Elapsed)
				}
				if !reflect.DeepEqual(digests, refDigests) {
					t.Error("state digests differ from the per-rank reference")
				}
				a, b := solvers[0], solvers[len(solvers)-1]
				if a.dims != b.dims {
					t.Fatalf("capped ranks hold boxes %v and %v, want equal dims", a.dims, b.dims)
				}
				if a.grid != b.grid || a.hier.Levels[0] != b.hier.Levels[0] {
					t.Error("two ranks with equal dims hold different operators, want the run's one")
				}
				if a.hier == b.hier {
					t.Error("two ranks cycle in one workspace")
				}
			})
		}
	}
}
