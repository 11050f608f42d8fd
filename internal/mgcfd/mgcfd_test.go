package mgcfd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
)

func cfg() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster()}
}

func smallConfig() Config {
	return Config{MeshCells: 4096, Steps: 5, Seed: 1}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{MeshCells: 4, Steps: 1}).Validate(); err == nil {
		t.Error("tiny mesh accepted")
	}
	if err := (Config{MeshCells: 1000, Steps: 0}).Validate(); err == nil {
		t.Error("zero steps accepted")
	}
	if err := smallConfig().Validate(); err != nil {
		t.Error(err)
	}
}

// nodeFace lists the nodes on a face of a block with cell dims d, as New
// does: the one face walk over the block's node dims.
func nodeFace(d mesh.Dims, axis, dir int) []int {
	return mesh.FaceIndices(mesh.Dims{NI: d.NI + 1, NJ: d.NJ + 1, NK: d.NK + 1}, axis, dir)
}

// faceNodes is MG-CFD's face walk written out per axis, the reference
// for nodeFace.
func faceNodes(d mesh.Dims, axis, dir int) []int {
	ni, nj, nk := d.NI+1, d.NJ+1, d.NK+1
	idx := func(i, j, k int) int { return (k*nj+j)*ni + i }
	var out []int
	switch axis {
	case 0:
		i := 0
		if dir > 0 {
			i = ni - 1
		}
		for k := 0; k < nk; k++ {
			for j := 0; j < nj; j++ {
				out = append(out, idx(i, j, k))
			}
		}
	case 1:
		j := 0
		if dir > 0 {
			j = nj - 1
		}
		for k := 0; k < nk; k++ {
			for i := 0; i < ni; i++ {
				out = append(out, idx(i, j, k))
			}
		}
	default:
		k := 0
		if dir > 0 {
			k = nk - 1
		}
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				out = append(out, idx(i, j, k))
			}
		}
	}
	return out
}

func TestFaceNodesCounts(t *testing.T) {
	d := mesh.Dims{NI: 4, NJ: 3, NK: 2} // nodes 5x4x3
	for axis, want := range map[int]int{0: 4 * 3, 1: 5 * 3, 2: 5 * 4} {
		for _, dir := range []int{-1, 1} {
			got := nodeFace(d, axis, dir)
			if len(got) != want {
				t.Errorf("axis %d dir %d: %d nodes, want %d", axis, dir, len(got), want)
			}
			n := int(d.Nodes())
			for _, idx := range got {
				if idx < 0 || idx >= n {
					t.Fatalf("face node %d out of range", idx)
				}
			}
		}
	}
}

func TestFaceNodesDistinctPerFace(t *testing.T) {
	d := mesh.Dims{NI: 3, NJ: 3, NK: 3}
	lo := nodeFace(d, 0, -1)
	hi := nodeFace(d, 0, 1)
	seen := map[int]bool{}
	for _, n := range lo {
		seen[n] = true
	}
	for _, n := range hi {
		if seen[n] {
			t.Fatal("opposite faces share nodes")
		}
	}
}

// TestFaceIndicesMatchesFaceNodes: the one face walk over a block's node
// dims lists the nodes of every face as faceNodes does, in its order, on
// one cell, on boxes one cell thick along each axis and on odd sizes.
func TestFaceIndicesMatchesFaceNodes(t *testing.T) {
	for _, n := range [][3]int{{1, 1, 1}, {1, 4, 5}, {4, 1, 5}, {4, 5, 1}, {3, 5, 7}, {7, 3, 5}, {5, 7, 3}} {
		d := mesh.Dims{NI: n[0], NJ: n[1], NK: n[2]}
		for axis := 0; axis < 3; axis++ {
			for _, dir := range []int{-1, 1} {
				if got, want := nodeFace(d, axis, dir), faceNodes(d, axis, dir); !slices.Equal(got, want) {
					t.Errorf("%v axis %d dir %d: %v, want %v", d, axis, dir, got, want)
				}
			}
		}
	}
}

func TestRunSingleRank(t *testing.T) {
	_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
		st, err := Run(c, smallConfig(), ScaleOpts{})
		if err != nil {
			return err
		}
		if st.StepsRun != 5 || !st.Active {
			return fmt.Errorf("stats = %+v", st)
		}
		if math.IsNaN(st.Residual) || math.IsInf(st.Residual, 0) {
			return fmt.Errorf("residual blew up: %v", st.Residual)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiRankStable(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		_, err := mpi.Run(p, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, smallConfig(), ScaleOpts{})
			if err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				res := s.Step()
				if math.IsNaN(res) || math.IsInf(res, 0) {
					return fmt.Errorf("p=%d step %d: residual %v", p, i, res)
				}
			}
			// Density must stay positive everywhere.
			for _, rho := range s.Density() {
				if rho <= 0 || math.IsNaN(rho) {
					return fmt.Errorf("p=%d: non-physical density %v", p, rho)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestIdleRanksParticipate(t *testing.T) {
	// 7 ranks on a mesh that only decomposes to fewer active ranks must
	// still complete (idle ranks join collectives).
	_, err := mpi.Run(7, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, Config{MeshCells: 27, Steps: 1, MGLevels: 1}, ScaleOpts{})
		if err != nil {
			return err
		}
		s.Step()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMassApproximatelyConserved(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, smallConfig(), ScaleOpts{})
		if err != nil {
			return err
		}
		before := s.MassTotal()
		for i := 0; i < 5; i++ {
			s.Step()
		}
		after := s.MassTotal()
		if math.Abs(after-before) > 0.2*math.Abs(before) {
			return fmt.Errorf("mass drifted: %v -> %v", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultigridLevelsBuilt(t *testing.T) {
	_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, Config{MeshCells: 4096, Steps: 1, MGLevels: 3}, ScaleOpts{})
		if err != nil {
			return err
		}
		if len(s.levels) != 3 {
			return fmt.Errorf("levels = %d, want 3", len(s.levels))
		}
		for li := 1; li < 3; li++ {
			if s.levels[li].nodes >= s.levels[li-1].nodes {
				return fmt.Errorf("level %d not coarser: %d vs %d",
					li, s.levels[li].nodes, s.levels[li-1].nodes)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaleCappingChargesTrueWork(t *testing.T) {
	base := Config{MeshCells: 32768, Steps: 2, Seed: 2}
	elapsed := func(sc ScaleOpts) float64 {
		st, err := mpi.Run(2, cfg(), func(c *mpi.Comm) error {
			_, err := Run(c, base, sc)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	full := elapsed(ScaleOpts{})
	capped := elapsed(ScaleOpts{MaxCellsPerRank: 512})
	if ratio := capped / full; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("capped virtual time %v vs full %v (ratio %v)", capped, full, ratio)
	}
}

func TestLargerMeshCostsMore(t *testing.T) {
	elapsed := func(cells int64) float64 {
		st, err := mpi.Run(2, cfg(), func(c *mpi.Comm) error {
			_, err := Run(c, Config{MeshCells: cells, Steps: 2},
				ScaleOpts{MaxCellsPerRank: 512})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	if !(elapsed(1_000_000) > elapsed(10_000)) {
		t.Error("100x mesh should cost more virtual time")
	}
}

// TestDeterministic runs the same configuration twice. Virtual time
// depends on edge and node counts alone, so the runs must also agree on
// every rank's final state, bit for bit.
func TestDeterministic(t *testing.T) {
	const ranks = 3
	conf := smallConfig()
	once := func() (float64, []uint64) {
		digests := make([]uint64, ranks)
		st, err := mpi.Run(ranks, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, conf, ScaleOpts{})
			if err != nil {
				return err
			}
			for i := 0; i < conf.Steps; i++ {
				s.Step()
			}
			digests[c.Rank()] = fault.Hash(s.Walk)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed, digests
	}
	ea, da := once()
	eb, db := once()
	if ea != eb {
		t.Errorf("virtual time not deterministic: %v vs %v", ea, eb)
	}
	for r := range da {
		if da[r] != db[r] {
			t.Errorf("rank %d state digest not deterministic: %#x vs %#x", r, da[r], db[r])
		}
	}
}

func TestHaloCouplingSpreadsInformation(t *testing.T) {
	// With two ranks, a perturbation seeded by rank-dependent init must
	// influence the neighbour within a few steps (halo exchange works).
	_, err := mpi.Run(2, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, Config{MeshCells: 1024, Steps: 1, MGLevels: 1, Seed: int64(c.Rank())}, ScaleOpts{})
		if err != nil {
			return err
		}
		before := make([]float64, len(s.Density()))
		copy(before, s.Density())
		for i := 0; i < 3; i++ {
			s.Step()
		}
		changed := false
		for i, rho := range s.Density() {
			if math.Abs(rho-before[i]) > 1e-12 {
				changed = true
				break
			}
		}
		if !changed {
			return fmt.Errorf("rank %d state froze; halo coupling inert", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoundarySampleAndAbsorb(t *testing.T) {
	_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, smallConfig(), ScaleOpts{})
		if err != nil {
			return err
		}
		vals := s.BoundarySample(10)
		if len(vals) != 10 {
			return fmt.Errorf("sample length %d", len(vals))
		}
		for _, v := range vals {
			if v <= 0 {
				return fmt.Errorf("non-physical density sample %v", v)
			}
		}
		// Absorb pulls boundary density toward the received values.
		before := s.Density()[0]
		s.AbsorbBoundary([]float64{before + 1})
		if !(s.Density()[0] > before) {
			return fmt.Errorf("absorb did not move density")
		}
		// Garbage values are rejected.
		cur := s.Density()[0]
		s.AbsorbBoundary([]float64{1e9})
		if s.Density()[0] != cur {
			return fmt.Errorf("non-physical transfer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKernelProfileRegions(t *testing.T) {
	st, err := mpi.Run(2, mpi.Config{Machine: cluster.SmallCluster(), Profile: true},
		func(c *mpi.Comm) error {
			_, err := Run(c, smallConfig(), ScaleOpts{})
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	prof := st.MergedProfile()
	for _, region := range []string{"compute_flux_edge", "time_step", "halo_exchange", "mg_restrict", "mg_prolong", "residual"} {
		if prof.Entry(region).Total() <= 0 {
			t.Errorf("kernel region %q recorded no time", region)
		}
	}
	// The edge-based flux loop is MG-CFD's hot kernel.
	flux := prof.Entry("compute_flux_edge").Compute
	if flux < prof.Entry("time_step").Compute {
		t.Error("flux kernel should outweigh the update kernel")
	}
}

// Density returns the fine-level density field (for tests).
func (s *Sim) Density() []float64 {
	if !s.active {
		return nil
	}
	return s.levels[0].q[0]
}

// MassTotal returns the global sum of density over owned nodes
// (collective); conserved up to boundary fluxes.
func (s *Sim) MassTotal() float64 {
	local := 0.0
	if s.active {
		for _, rho := range s.levels[0].q[0] {
			local += rho
		}
	}
	return s.comm.AllreduceScalar(local, mpi.Sum)
}
