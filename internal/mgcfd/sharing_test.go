package mgcfd

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
)

// buildOwnMesh gives the rank what New built for it before the ranks of a
// run shared their set-up state: edge lists and face node lists of its
// own, made by the same calls. It is the reference the shared build is
// compared against.
func (s *Sim) buildOwnMesh(sc ScaleOpts) {
	if !s.active {
		return
	}
	nbs := s.decomp.Local(s.comm.Rank(), sc.MaxCellsPerRank).Neighbors
	for _, lv := range s.levels {
		lv.edges = mesh.StructuredEdges(lv.dims)
		for i, nb := range nbs {
			lv.faces[i].nodeIdx = faceNodes(lv.dims, nb.Axis, nb.Dir)
		}
	}
}

// sharingRun runs conf on 48 capped ranks with event tracing on and
// returns the run's Stats, each rank's state digest and its Sim.
func sharingRun(t *testing.T, conf Config, perRank bool) (*mpi.Stats, []uint64, []*Sim) {
	t.Helper()
	const ranks = 48
	sc := Production()
	digests, sims := make([]uint64, ranks), make([]*Sim, ranks)
	st, err := mpi.Run(ranks, mpi.Config{Machine: cluster.SmallCluster(), Trace: true}, func(c *mpi.Comm) error {
		s, err := New(c, conf, sc)
		if err != nil {
			return err
		}
		if perRank {
			s.buildOwnMesh(sc)
		}
		for i := 0; i < conf.Steps; i++ {
			s.Step()
		}
		if s.active {
			digests[c.Rank()] = fault.Hash(s.Walk)
		}
		sims[c.Rank()] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, digests, sims
}

// TestSharedSetupMatchesPerRankBuild: capped ranks reading one edge list
// per level and one node list per face report exactly what they report
// when each builds its own — elapsed, per-rank clocks and compute/comm
// split, timelines, comm matrix and final state digests — at GOMAXPROCS
// 1 and 2. Under -race the same runs prove that nothing writes the lists.
func TestSharedSetupMatchesPerRankBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	conf := Config{MeshCells: 3_000_000, Steps: 2, Seed: 5}
	refStats, refDigests, refSims := sharingRun(t, conf, true)
	if &refSims[0].levels[0].edges[0] == &refSims[1].levels[0].edges[0] {
		t.Fatal("the per-rank reference shares its edge list")
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			st, digests, sims := sharingRun(t, conf, false)
			if !reflect.DeepEqual(st, refStats) {
				t.Errorf("Stats differ from the per-rank reference: elapsed %v vs %v", st.Elapsed, refStats.Elapsed)
			}
			if !reflect.DeepEqual(digests, refDigests) {
				t.Error("state digests differ from the per-rank reference")
			}
			if sims[0].decomp != sims[len(sims)-1].decomp {
				t.Error("two ranks of one instance hold different decompositions, want the run's one")
			}
			a, b := sims[0].levels, sims[1].levels
			for l := range a {
				if a[l].dims != b[l].dims {
					t.Fatalf("level %d: capped ranks hold boxes %v and %v, want equal dims", l, a[l].dims, b[l].dims)
				}
				if &a[l].edges[0] != &b[l].edges[0] {
					t.Errorf("level %d: two ranks with equal dims hold different edge lists, want the run's one", l)
				}
			}
		})
	}
}
