package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

func TestDimsCells(t *testing.T) {
	d := Dims{10, 20, 30}
	if d.Cells() != 6000 {
		t.Errorf("Cells = %d", d.Cells())
	}
	if d.Nodes() != 11*21*31 {
		t.Errorf("Nodes = %d", d.Nodes())
	}
}

func TestCoarsen(t *testing.T) {
	d := Dims{9, 8, 1}
	c := d.Coarsen()
	if c != (Dims{5, 4, 1}) {
		t.Errorf("Coarsen = %+v", c)
	}
	// Floor at 1.
	if (Dims{1, 1, 1}).Coarsen() != (Dims{1, 1, 1}) {
		t.Error("Coarsen below 1")
	}
}

func TestCubeDims(t *testing.T) {
	d := CubeDims(28_000_000)
	if d.Cells() < 28_000_000 {
		t.Errorf("CubeDims(28M).Cells() = %d too small", d.Cells())
	}
	if d.NI != d.NJ || d.NJ != d.NK {
		t.Errorf("CubeDims not cubic: %+v", d)
	}
	if CubeDims(0) != (Dims{1, 1, 1}) {
		t.Error("CubeDims(0) should clamp to unit")
	}
}

func TestFactorGridExact(t *testing.T) {
	d := Dims{100, 100, 100}
	for _, p := range []int{1, 2, 8, 100, 128, 1000} {
		g, err := FactorGrid(p, d)
		if err != nil {
			t.Fatalf("FactorGrid(%d): %v", p, err)
		}
		if g[0]*g[1]*g[2] != p {
			t.Errorf("grid %v product != %d", g, p)
		}
	}
}

func TestFactorGridPrefersBalanced(t *testing.T) {
	g, err := FactorGrid(8, Dims{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if g != [3]int{2, 2, 2} {
		t.Errorf("FactorGrid(8, cube) = %v, want 2x2x2", g)
	}
}

func TestFactorGridRespectsDims(t *testing.T) {
	// Only 4 cells along I: a grid of 8x1x1 is invalid, 4x2x1 or 2x2x2 ok.
	g, err := FactorGrid(8, Dims{4, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if g[0] > 4 {
		t.Errorf("grid %v exceeds NI=4", g)
	}
	if _, err := FactorGrid(7, Dims{2, 2, 1}); err == nil {
		t.Error("FactorGrid should fail when prime > all dims")
	}
}

func TestNewDecompErrors(t *testing.T) {
	for _, p := range []int{0, -1} {
		if _, err := NewDecompBestEffort(Dims{2, 2, 2}, p); err == nil {
			t.Errorf("p=%d accepted", p)
		}
	}
	dc, err := NewDecompBestEffort(Dims{2, 2, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Ranks() != 8 {
		t.Errorf("100 ranks on 8 cells use %d ranks, want the cell count", dc.Ranks())
	}
}

func TestBestEffortDecomp(t *testing.T) {
	// 7 is prime and exceeds every dim: fall back to fewer active ranks.
	dc, err := NewDecompBestEffort(Dims{4, 4, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Ranks() > 7 || dc.Ranks() < 1 {
		t.Errorf("best-effort ranks = %d", dc.Ranks())
	}
	// Oversubscription clamps to cell count.
	dc2, err := NewDecompBestEffort(Dims{2, 2, 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if dc2.Ranks() > 4 {
		t.Errorf("oversubscribed ranks = %d, want <= 4", dc2.Ranks())
	}
}

func TestBoxPartitionCoversMesh(t *testing.T) {
	d := Dims{10, 7, 5}
	dc, err := NewDecompBestEffort(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < dc.Ranks(); r++ {
		total += dc.Box(r).Dims().Cells()
	}
	if total != d.Cells() {
		t.Errorf("boxes cover %d cells, mesh has %d", total, d.Cells())
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	dc := &Decomp{Dims: Dims{8, 8, 8}, Grid: [3]int{2, 2, 2}}
	for r := 0; r < dc.Ranks(); r++ {
		if got := dc.Rank(dc.Coords(r)); got != r {
			t.Errorf("round trip %d -> %v -> %d", r, dc.Coords(r), got)
		}
	}
}

func TestNeighborsInterior(t *testing.T) {
	dc := &Decomp{Dims: Dims{27, 27, 27}, Grid: [3]int{3, 3, 3}}
	// Center rank (1,1,1) has 6 neighbours.
	center := dc.Rank([3]int{1, 1, 1})
	nbs := dc.Neighbors(center)
	if len(nbs) != 6 {
		t.Fatalf("interior rank has %d neighbours, want 6", len(nbs))
	}
	for _, nb := range nbs {
		if nb.FaceCells != 81 {
			t.Errorf("face cells = %d, want 81", nb.FaceCells)
		}
	}
	// Corner rank (0,0,0) has 3.
	if nbs := dc.Neighbors(0); len(nbs) != 3 {
		t.Errorf("corner rank has %d neighbours, want 3", len(nbs))
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	dc := &Decomp{Dims: Dims{12, 12, 12}, Grid: [3]int{2, 3, 2}}
	for r := 0; r < dc.Ranks(); r++ {
		for _, nb := range dc.Neighbors(r) {
			back := false
			for _, nb2 := range dc.Neighbors(nb.Rank) {
				if nb2.Rank == r {
					back = true
				}
			}
			if !back {
				t.Errorf("neighbour relation not symmetric: %d -> %d", r, nb.Rank)
			}
		}
	}
}

// TestFaceCellsAt: a face quarters per level and keeps at least one cell.
func TestFaceCellsAt(t *testing.T) {
	nb := Neighbor{FaceCells: 81}
	for lvl, want := range []int{81, 20, 5, 1, 1} {
		if got := nb.FaceCellsAt(lvl); got != want {
			t.Errorf("level %d: %d face cells, want %d", lvl, got, want)
		}
	}
}

// TestSharedDecompIsTheRunsOne: every rank of a run gets one Decomp, the
// one NewDecompBestEffort builds for the run's size, and a run on a rank
// count the mesh cannot factor gets the best-effort grid.
func TestSharedDecompIsTheRunsOne(t *testing.T) {
	for _, p := range []int{6, 7} {
		d := Dims{4, 4, 1}
		want, err := NewDecompBestEffort(d, p)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Decomp, p)
		_, err = mpi.Run(p, mpi.Config{Machine: cluster.SmallCluster()}, func(c *mpi.Comm) error {
			dc, err := SharedDecomp(c, d)
			got[c.Rank()] = dc
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, dc := range got {
			if dc != got[0] {
				t.Errorf("p=%d: rank %d holds its own Decomp, want the run's one", p, r)
			}
		}
		if *got[0] != *want {
			t.Errorf("p=%d: shared %+v, want %+v", p, *got[0], *want)
		}
	}
}

func TestLocalScaleCapping(t *testing.T) {
	d := Dims{100, 100, 100}
	dc, err := NewDecompBestEffort(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := dc.Local(0, 1000)
	if l.Sim.Cells() > 1000 {
		t.Errorf("capped local has %d cells, cap 1000", l.Sim.Cells())
	}
	wantScale := float64(d.Cells()) / float64(l.Sim.Cells())
	if l.Scale != wantScale {
		t.Errorf("scale = %v, want %v", l.Scale, wantScale)
	}
	// Uncapped.
	l2 := dc.Local(0, 0)
	if l2.Scale != 1.0 || l2.Sim != l2.True {
		t.Errorf("uncapped local altered: %+v", l2)
	}
}

func TestCapDimsRespectsCap(t *testing.T) {
	f := func(ni, nj, nk uint8, cap uint16) bool {
		d := Dims{int(ni)%60 + 1, int(nj)%60 + 1, int(nk)%60 + 1}
		c := int(cap)%5000 + 1
		out := CapDims(d, c)
		return out.Cells() <= max64(int64(c), 1) && out.NI >= 1 && out.NJ >= 1 && out.NK >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestNodeCoordsDeterministicAndJittered(t *testing.T) {
	d := Dims{3, 3, 3}
	a := NodeCoords(d, 0.3, 42)
	b := NodeCoords(d, 0.3, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("NodeCoords not deterministic for fixed seed")
		}
	}
	c := NodeCoords(d, 0.3, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical coords")
	}
	// Zero jitter = exact lattice.
	z := NodeCoords(d, 0, 1)
	if z[0] != [3]float64{0, 0, 0} {
		t.Errorf("lattice origin = %v", z[0])
	}
}

func TestInterfaceCells(t *testing.T) {
	d := CubeDims(1000)
	if got := InterfaceCells(d, 0.05); got < 45 || got > 55 {
		t.Errorf("5%% interface of 1000 cells = %d", got)
	}
	if InterfaceCells(Dims{1, 1, 1}, 0.0001) != 1 {
		t.Error("interface should clamp to at least one cell")
	}
}

// Property: every valid FactorGrid result multiplies to p and respects
// the mesh dimensions.
func TestFactorGridProperty(t *testing.T) {
	f := func(pRaw uint16, niRaw, njRaw, nkRaw uint8) bool {
		p := int(pRaw)%500 + 1
		d := Dims{int(niRaw)%50 + 10, int(njRaw)%50 + 10, int(nkRaw)%50 + 10}
		g, err := FactorGrid(p, d)
		if err != nil {
			// Only acceptable when p genuinely has no valid factorisation.
			return true
		}
		return g[0]*g[1]*g[2] == p && g[0] <= d.NI && g[1] <= d.NJ && g[2] <= d.NK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: decomposition boxes are disjoint and cover the mesh for
// arbitrary decomposable rank counts.
func TestDecompBoxesProperty(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%60 + 1
		d := Dims{12, 10, 8}
		dc, err := NewDecompBestEffort(d, p)
		if err != nil {
			return false
		}
		var total int64
		for r := 0; r < dc.Ranks(); r++ {
			b := dc.Box(r)
			if b.Dims().NI < 1 || b.Dims().NJ < 1 || b.Dims().NK < 1 {
				return false
			}
			total += b.Dims().Cells()
		}
		return total == d.Cells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNodeCoordsRandMatchesSeededWrapper: threading an explicit
// generator must reproduce the seeded wrapper exactly, so callers can
// migrate to NodeCoordsRand without moving any golden results.
func TestNodeCoordsRandMatchesSeededWrapper(t *testing.T) {
	d := Dims{4, 5, 6}
	want := NodeCoords(d, 0.3, 42)
	got := NodeCoordsRand(d, 0.3, rand.New(rand.NewSource(42)))
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}
