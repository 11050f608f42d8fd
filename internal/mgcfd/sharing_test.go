package mgcfd

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mpi"
)

// buildOwnMesh gives the rank what New built for it before the ranks of a
// run shared their set-up state: face node lists of its own, made by the
// same calls. It is the reference the shared build is compared against.
func (s *Sim) buildOwnMesh(sc ScaleOpts) {
	if !s.active {
		return
	}
	nbs := s.decomp.Local(s.comm.Rank(), sc.MaxCellsPerRank).Neighbors
	for _, lv := range s.levels {
		for i, nb := range nbs {
			lv.faces[i].nodes = newFaceList(nodeFace(lv.dims, nb.Axis, nb.Dir))
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

// TestSharedSetupMatchesPerRankBuild: capped ranks reading one node list
// per face report exactly what they report when each builds its own —
// elapsed, per-rank clocks and compute/comm split, timelines, comm matrix
// and final state digests — at GOMAXPROCS 1 and 2. Under -race the same
// runs prove that nothing writes the lists.
func TestSharedSetupMatchesPerRankBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	conf := Config{MeshCells: 3_000_000, Steps: 2, Seed: 5}
	refStats, refDigests, refSims := sharingRun(t, conf, true)
	if a, b := sameFace(refSims); a == b {
		t.Fatal("the per-rank reference shares its face lists")
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
			if a, b := sameFace(sims); a != b {
				t.Error("two ranks with equal dims hold different node lists for one face, want the run's one")
			}
		})
	}
}

// sameFace finds two ranks of sims whose fine levels have equal dims and a
// face on the same axis and side, and returns the first node of each
// rank's list for that face.
func sameFace(sims []*Sim) (*int, *int) {
	type key struct{ axis, dir int }
	first := map[key]*int{}
	for _, s := range sims {
		if !s.active || s.levels[0].dims != sims[0].levels[0].dims {
			continue
		}
		for i, nb := range s.decomp.Neighbors(s.comm.Rank()) {
			k := key{nb.Axis, nb.Dir}
			idx := &s.levels[0].faces[i].nodes.idx[0]
			if other, ok := first[k]; ok {
				return other, idx
			}
			first[k] = idx
		}
	}
	panic("no two ranks of equal dims share a face direction")
}
