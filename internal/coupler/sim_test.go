package coupler

import (
	"strings"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/simpic"
)

func runCfg() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster()}
}

// twoRowSim is a minimal compressor pair: two MG-CFD instances and one
// sliding-plane CU.
func twoRowSim(search Search) *Simulation {
	return &Simulation{
		Instances: []InstanceSpec{
			{Name: "row1", Kind: KindMGCFD, MeshCells: 4096, Ranks: 4, Seed: 1},
			{Name: "row2", Kind: KindMGCFD, MeshCells: 4096, Ranks: 4, Seed: 2},
		},
		Units: []UnitSpec{
			{Name: "cu", A: 0, B: 1, Kind: SlidingPlane, Points: 2000, Ranks: 2, Search: search},
		},
		DensitySteps:    3,
		RotationPerStep: 0.001,
		Scale:           Scale{MaxPointsPerSide: 256},
	}
}

func TestValidateCatchesBadWiring(t *testing.T) {
	s := twoRowSim(Tree)
	s.Units[0].B = 0 // self-coupling
	if err := s.Validate(); err == nil {
		t.Error("self-coupled unit accepted")
	}
	s2 := twoRowSim(Tree)
	s2.DensitySteps = 0
	if err := s2.Validate(); err == nil {
		t.Error("zero steps accepted")
	}
	s3 := twoRowSim(Tree)
	s3.Units[0].Points = 0
	if err := s3.Validate(); err == nil {
		t.Error("pointless interface accepted")
	}
}

func TestRoleLayout(t *testing.T) {
	s := twoRowSim(Tree)
	if s.TotalRanks() != 10 {
		t.Fatalf("total ranks = %d, want 10", s.TotalRanks())
	}
	r := s.roleOf(0)
	if r.isUnit || r.index != 0 || r.local != 0 {
		t.Errorf("rank 0 role %+v", r)
	}
	r = s.roleOf(5)
	if r.isUnit || r.index != 1 || r.local != 1 {
		t.Errorf("rank 5 role %+v", r)
	}
	r = s.roleOf(9)
	if !r.isUnit || r.index != 0 || r.local != 1 {
		t.Errorf("rank 9 role %+v", r)
	}
}

func TestCoupledRunCompletes(t *testing.T) {
	for _, search := range []Search{BruteForce, Tree, TreePrefetch} {
		rep, err := twoRowSim(search).Run(runCfg())
		if err != nil {
			t.Fatalf("%v: %v", search, err)
		}
		if rep.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", search)
		}
		for i, it := range rep.InstanceTime {
			if it <= 0 {
				t.Errorf("%v: instance %d has no time", search, i)
			}
		}
	}
}

func TestTreeSearchCheaperThanBrute(t *testing.T) {
	// With a large true interface, the CU busy time must order
	// brute > tree > prefetch.
	busy := func(search Search) float64 {
		s := twoRowSim(search)
		s.Units[0].Points = 500_000
		rep, err := s.Run(runCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rep.UnitComp[0]
	}
	b, tr, pf := busy(BruteForce), busy(Tree), busy(TreePrefetch)
	if !(tr < b) {
		t.Errorf("tree busy %v not below brute %v", tr, b)
	}
	if !(pf <= tr) {
		t.Errorf("prefetch busy %v not below tree %v", pf, tr)
	}
}

func TestSteadyStateMapsOnce(t *testing.T) {
	// A steady-state CU exchanging every step must be much cheaper than a
	// sliding-plane CU with the same traffic (mapping computed once).
	busy := func(kind InterfaceKind) float64 {
		s := twoRowSim(Tree)
		s.Units[0].Kind = kind
		s.Units[0].ExchangeEvery = 1
		s.Units[0].Points = 500_000
		s.DensitySteps = 6
		rep, err := s.Run(runCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rep.UnitComp[0]
	}
	sliding, steady := busy(SlidingPlane), busy(SteadyState)
	if !(steady < sliding/2) {
		t.Errorf("steady-state CU busy %v not clearly below sliding %v", steady, sliding)
	}
}

func TestTripleComponentWithSIMPIC(t *testing.T) {
	// Compressor row -> combustor (SIMPIC) -> turbine row: the full
	// HPC-Combustor-HPT pattern in miniature.
	stc := simpic.Config{Cells: 512, ParticlesPerCell: 10, Steps: 10, Seed: 3}
	s := &Simulation{
		Instances: []InstanceSpec{
			{Name: "hpc", Kind: KindMGCFD, MeshCells: 4096, Ranks: 3, Seed: 1},
			{Name: "combustor", Kind: KindSIMPIC, MeshCells: 28_000_000, Ranks: 4, Simpic: &stc, Seed: 2},
			{Name: "hpt", Kind: KindMGCFD, MeshCells: 4096, Ranks: 3, Seed: 3},
		},
		Units: []UnitSpec{
			{Name: "hpc-comb", A: 0, B: 1, Kind: SteadyState, Points: 5000, Ranks: 1, Search: TreePrefetch, ExchangeEvery: 2},
			{Name: "comb-hpt", A: 1, B: 2, Kind: SteadyState, Points: 5000, Ranks: 1, Search: TreePrefetch, ExchangeEvery: 2},
		},
		DensitySteps:    4,
		RotationPerStep: 0.001,
		Scale:           Scale{MaxPointsPerSide: 128},
	}
	rep, err := s.Run(runCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || len(rep.InstanceTime) != 3 {
		t.Fatalf("report %+v", rep)
	}
	// SIMPIC runs 2 steps per density step; its time must be recorded.
	if rep.InstanceTime[1] <= 0 {
		t.Error("SIMPIC instance recorded no time")
	}
}

func TestOverlapIncreasesCouplingCost(t *testing.T) {
	// The composite-domain (overset-style) interface of Section II-A
	// exchanges and maps a larger mesh portion: the CU must cost more.
	busy := func(overlap float64) float64 {
		s := twoRowSim(Tree)
		s.Units[0].Points = 200_000
		s.Units[0].Overlap = overlap
		rep, err := s.Run(runCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rep.UnitComp[0]
	}
	if !(busy(2.0) > busy(0)) {
		t.Error("overlap=2 should increase CU busy time")
	}
}

// femCasingSim is a CFD row thermally coupled to the casing FEM: the
// paper's stated extension (conclusions: coupled CFD + Combustion +
// Structural).
func femCasingSim() *Simulation {
	return &Simulation{
		Instances: []InstanceSpec{
			{Name: "row", Kind: KindMGCFD, MeshCells: 4096, Ranks: 3, Seed: 1},
			{Name: "casing", Kind: KindFEM, MeshCells: 500, Ranks: 2, Seed: 2},
		},
		Units: []UnitSpec{
			{Name: "thermal", A: 0, B: 1, Kind: SteadyState, Points: 1000,
				Ranks: 1, Search: TreePrefetch, ExchangeEvery: 2},
		},
		DensitySteps:    4,
		RotationPerStep: 0.001,
		Scale:           Scale{MaxPointsPerSide: 128},
	}
}

func TestFEMCasingCoupling(t *testing.T) {
	rep, err := femCasingSim().Run(runCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.InstanceTime[1] <= 0 {
		t.Error("FEM instance recorded no time")
	}
}

func TestCouplingShareSmallWithPrefetch(t *testing.T) {
	s := twoRowSim(TreePrefetch)
	s.DensitySteps = 5
	rep, err := s.Run(runCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CouplingShare > 0.5 {
		t.Errorf("coupling share %v too large for prefetch search", rep.CouplingShare)
	}
}

func TestFailureInInstancePropagates(t *testing.T) {
	// Failure injection: an instance that cannot be built (SIMPIC with
	// too few cells for its ranks) must abort the whole coupled world
	// with a descriptive error, not deadlock the other components.
	bad := simpic.Config{Cells: 4, ParticlesPerCell: 1, Steps: 10}
	s := &Simulation{
		Instances: []InstanceSpec{
			{Name: "ok-row", Kind: KindMGCFD, MeshCells: 4096, Ranks: 4, Seed: 1},
			{Name: "doomed", Kind: KindSIMPIC, MeshCells: 28_000_000, Ranks: 8, Simpic: &bad, Seed: 2},
		},
		Units: []UnitSpec{
			{Name: "cu", A: 0, B: 1, Kind: SteadyState, Points: 100, Ranks: 1, Search: Tree},
		},
		DensitySteps: 3,
		Scale:        Scale{MaxPointsPerSide: 64},
	}
	_, err := s.Run(runCfg())
	if err == nil {
		t.Fatal("doomed instance did not fail the run")
	}
	if !strings.Contains(err.Error(), "doomed") && !strings.Contains(err.Error(), "simpic") {
		t.Errorf("error does not identify the failing instance: %v", err)
	}
}

func TestSliceAndShareCoverEverything(t *testing.T) {
	// sliceOf: boundary-rank slices partition the sim points exactly.
	for _, tc := range []struct{ n, nb int }{{100, 3}, {7, 7}, {1024, 8}, {5, 2}} {
		total := 0
		for i := 0; i < tc.nb; i++ {
			s := sliceOf(tc.n, tc.nb, i)
			if s < 0 {
				t.Fatalf("negative slice n=%d nb=%d i=%d", tc.n, tc.nb, i)
			}
			total += s
		}
		if total != tc.n {
			t.Errorf("sliceOf(%d,%d) covers %d", tc.n, tc.nb, total)
		}
	}
	// shareOf: CU target shares partition [0,n).
	for _, tc := range []struct{ n, k int }{{100, 3}, {10, 10}, {1024, 7}} {
		prev := 0
		for i := 0; i < tc.k; i++ {
			lo, hi := shareOf(tc.n, tc.k, i)
			if lo != prev || hi < lo {
				t.Fatalf("shareOf(%d,%d,%d) = [%d,%d), prev end %d", tc.n, tc.k, i, lo, hi, prev)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Errorf("shareOf(%d,%d) ends at %d", tc.n, tc.k, prev)
		}
	}
}

func TestEffectivePoints(t *testing.T) {
	us := UnitSpec{Points: 1000}
	if us.effectivePoints() != 1000 {
		t.Error("no-overlap effective points wrong")
	}
	us.Overlap = 2.5
	if us.effectivePoints() != 2500 {
		t.Errorf("overlap effective points = %d", us.effectivePoints())
	}
	us.Overlap = 0.5 // below 1 disables
	if us.effectivePoints() != 1000 {
		t.Error("sub-unity overlap should be ignored")
	}
}

func TestFemShellSizing(t *testing.T) {
	cfg := femShellFor(10_000)
	if cfg.NAxial < 2 || cfg.NCirc < 3 {
		t.Fatalf("shell %dx%d invalid", cfg.NAxial, cfg.NCirc)
	}
	got := cfg.NAxial * cfg.NCirc
	if got < 5_000 || got > 20_000 {
		t.Errorf("shell of %d elements far from requested 10k", got)
	}
	tiny := femShellFor(1)
	if tiny.NAxial < 2 || tiny.NCirc < 3 {
		t.Error("tiny shell below minimums")
	}
}

func TestDeterministicCoupledRun(t *testing.T) {
	once := func() float64 {
		rep, err := twoRowSim(Tree).Run(runCfg())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	if a, b := once(), once(); a != b {
		t.Errorf("coupled run not deterministic: %v vs %v", a, b)
	}
}

func TestRoleAndGroupRanksConsistent(t *testing.T) {
	s := &Simulation{
		Instances: []InstanceSpec{
			{Name: "a", Kind: KindMGCFD, MeshCells: 100, Ranks: 3},
			{Name: "b", Kind: KindSIMPIC, MeshCells: 100, Ranks: 5},
			{Name: "c", Kind: KindMGCFD, MeshCells: 100, Ranks: 2},
		},
		Units: []UnitSpec{
			{Name: "u0", A: 0, B: 1, Points: 10, Ranks: 2},
			{Name: "u1", A: 1, B: 2, Points: 10, Ranks: 4},
		},
		DensitySteps: 1,
	}
	// Every world rank's role must map back to a group containing it.
	for w := 0; w < s.TotalRanks(); w++ {
		r := s.roleOf(w)
		lo, hi := s.groupRanks(r.isUnit, r.index)
		if w < lo || w >= hi {
			t.Fatalf("rank %d role %+v outside its group [%d,%d)", w, r, lo, hi)
		}
		if r.local != w-lo {
			t.Fatalf("rank %d local index %d, want %d", w, r.local, w-lo)
		}
	}
	// Groups must tile the world exactly.
	covered := 0
	for i := range s.Instances {
		lo, hi := s.groupRanks(false, i)
		covered += hi - lo
	}
	for u := range s.Units {
		lo, hi := s.groupRanks(true, u)
		covered += hi - lo
	}
	if covered != s.TotalRanks() {
		t.Fatalf("groups cover %d of %d ranks", covered, s.TotalRanks())
	}
}

func TestBoundaryRanksBounds(t *testing.T) {
	for _, tc := range []struct{ ranks, want int }{
		{1, 1}, {3, 3}, {4, 4}, {8, 8}, {9, 8}, {5000, 8},
	} {
		if got := boundaryRanks(tc.ranks); got != tc.want {
			t.Errorf("boundaryRanks(%d) = %d, want %d", tc.ranks, got, tc.want)
		}
	}
}
