package mgcfd

import (
	"reflect"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
)

// TestTimeMatchesRun is Time's oracle: ranks that hold no flow fields
// must charge, send and reduce exactly what Run's ranks do. Each row runs
// one configuration through Run and through Time with profiling and
// event tracing on, and requires the two mpi.Stats to be deeply equal —
// elapsed, per-rank clocks, compute/comm split, profiles, timelines and
// comm matrix — and every rank's report to agree but for the residual,
// which sums the fields. The rows cover one rank, idle ranks, uncapped
// and Production() runs, a cap under which the ranks' simulated boxes
// differ, a sampled run and one- and four-level hierarchies; together
// they take well under a second, so -short runs them all.
func TestTimeMatchesRun(t *testing.T) {
	var idle, unequal bool // some row leaves idle ranks; some row's capped boxes differ
	for _, g := range []struct {
		name  string
		ranks int
		c     Config
		sc    ScaleOpts
	}{
		{"1 rank", 1, Config{MeshCells: 4096, Steps: 3, Seed: 1}, ScaleOpts{}},
		{"idle ranks", 17, Config{MeshCells: 4096, Steps: 2, Seed: 2}, ScaleOpts{}},
		{"uncapped", 8, Config{MeshCells: 32_768, Steps: 2, Seed: 3}, ScaleOpts{}},
		{"Production()", 6, Config{MeshCells: 3_000_000, Steps: 5, Seed: 4}, Production()},
		{"unequal sim dims", 12, Config{MeshCells: 32_768, Steps: 2, Seed: 5}, ScaleOpts{MaxCellsPerRank: 500}},
		{"3 sampled steps", 4, Config{MeshCells: 20_000, Steps: 10, Seed: 6}, ScaleOpts{MaxCellsPerRank: 512, SampleSteps: 3}},
		{"1 level", 4, Config{MeshCells: 4096, Steps: 2, MGLevels: 1, Seed: 7}, ScaleOpts{}},
		{"4 levels", 8, Config{MeshCells: 32_768, Steps: 2, MGLevels: 4, Seed: 8}, ScaleOpts{MaxCellsPerRank: 2048}},
	} {
		dc, err := mesh.NewDecompBestEffort(mesh.CubeDims(g.c.MeshCells), g.ranks)
		if err != nil {
			t.Fatal(err)
		}
		sims := map[mesh.Dims]bool{}
		for r := range dc.Ranks() {
			sims[dc.Local(r, g.sc.MaxCellsPerRank).Sim] = true
		}
		idle = idle || dc.Ranks() < g.ranks
		unequal = unequal || g.sc.MaxCellsPerRank > 0 && len(sims) > 1
		t.Run(g.name, func(t *testing.T) {
			want, wantRep := timedRun(t, Run, g.ranks, g.c, g.sc)
			got, gotRep := timedRun(t, Time, g.ranks, g.c, g.sc)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Time's Stats differ from Run's: elapsed %v vs %v", got.Elapsed, want.Elapsed)
			}
			for r := range wantRep {
				w := *wantRep[r]
				w.Residual = 0
				if *gotRep[r] != w {
					t.Errorf("rank %d: Time reports %+v, Run %+v", r, *gotRep[r], *wantRep[r])
				}
			}
		})
	}
	if !idle || !unequal {
		t.Errorf("the rows leave idle ranks: %v; give capped ranks unequal boxes: %v; want both", idle, unequal)
	}
}

// timedRun runs c on ranks ranks through run, Run or Time, with
// profiling and tracing on, and returns the run's Stats and every rank's
// report.
func timedRun(t *testing.T, run func(*mpi.Comm, Config, ScaleOpts) (*Stats, error), ranks int, c Config, sc ScaleOpts) (*mpi.Stats, []*Stats) {
	t.Helper()
	reps := make([]*Stats, ranks)
	st, err := mpi.Run(ranks, mpi.Config{Machine: cluster.SmallCluster(), Profile: true, Trace: true},
		func(comm *mpi.Comm) error {
			r, err := run(comm, c, sc)
			reps[comm.Rank()] = r
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	return st, reps
}
