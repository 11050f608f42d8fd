package pressure

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
)

func cfg(profile bool) mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster(), Profile: profile}
}

func smallConfig(v Variant) Config {
	return Config{MeshCells: 8000, Steps: 2, Variant: v, Seed: 1}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{MeshCells: 2, Steps: 1}).Validate(); err == nil {
		t.Error("tiny mesh accepted")
	}
	if err := (Config{MeshCells: 1000, Steps: 0}).Validate(); err == nil {
		t.Error("zero steps accepted")
	}
	if err := smallConfig(Base).Validate(); err != nil {
		t.Error(err)
	}
}

func TestVariantString(t *testing.T) {
	if Base.String() != "Base" || Optimized.String() != "Optimized" {
		t.Error("variant names wrong")
	}
}

func TestRunBothVariants(t *testing.T) {
	for _, v := range []Variant{Base, Optimized} {
		for _, p := range []int{1, 2, 4} {
			_, err := mpi.Run(p, cfg(false), func(c *mpi.Comm) error {
				st, err := Run(c, smallConfig(v), ScaleOpts{})
				if err != nil {
					return err
				}
				if st.StepsRun != 2 {
					return fmt.Errorf("%v p=%d: steps %d", v, p, st.StepsRun)
				}
				if st.PCGIterations < 1 {
					return fmt.Errorf("%v p=%d: no PCG iterations", v, p)
				}
				if math.IsNaN(st.MeanVelocity) {
					return fmt.Errorf("%v p=%d: NaN velocity", v, p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestProfileRegionsPresent(t *testing.T) {
	st, err := mpi.Run(2, cfg(true), func(c *mpi.Comm) error {
		_, err := Run(c, smallConfig(Base), ScaleOpts{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := st.MergedProfile()
	if prof == nil {
		t.Fatal("no merged profile")
	}
	for _, region := range []string{"momentum", "scalars", "combustion", "pressure_field", "spray"} {
		e := prof.Entry(region)
		if e.Total() <= 0 {
			t.Errorf("region %q has no recorded time", region)
		}
	}
	// Pressure field must be a leading cost (it dominates at production
	// scale; on this tiny smoke mesh the local AMG converges quickly, so
	// only require it to be within 2x of the largest region).
	pf := prof.Entry("pressure_field").Total()
	for _, region := range []string{"momentum", "scalars", "combustion"} {
		if other := prof.Entry(region).Total(); other > 2*pf {
			t.Errorf("region %q (%v) dwarfs pressure_field (%v)", region, other, pf)
		}
	}
}

func TestSprayRegionCommHeavyAtScale(t *testing.T) {
	// With many ranks and few droplets per rank, the spray region must be
	// communication-dominated (paper: 96% comm at 2,048 cores).
	st, err := mpi.Run(16, cfg(true), func(c *mpi.Comm) error {
		_, err := Run(c, Config{MeshCells: 64000, Steps: 2, Variant: Base, Seed: 2},
			ScaleOpts{MaxCellsPerRank: 512, MaxDropletsPerRank: 64})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	e := st.MergedProfile().Entry("spray")
	if e.Total() <= 0 {
		t.Fatal("no spray time")
	}
	if frac := e.Comm / e.Total(); frac < 0.5 {
		t.Errorf("spray comm fraction %v at 16 ranks; expected communication-dominated", frac)
	}
}

func TestOptimizedFasterThanBase(t *testing.T) {
	elapsed := func(v Variant) float64 {
		st, err := mpi.Run(4, cfg(false), func(c *mpi.Comm) error {
			_, err := Run(c, Config{MeshCells: 32768, Steps: 2, Variant: v, Seed: 3},
				ScaleOpts{MaxCellsPerRank: 1000, MaxDropletsPerRank: 512})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	base, opt := elapsed(Base), elapsed(Optimized)
	if !(opt < base) {
		t.Errorf("optimized (%v) not faster than base (%v)", opt, base)
	}
}

func TestPCGIterationsGrowWithRanks(t *testing.T) {
	// Block-local AMG preconditioning weakens with more blocks: the
	// pressure-field PE decay mechanism.
	iters := func(p int) int {
		var out int
		_, err := mpi.Run(p, cfg(false), func(c *mpi.Comm) error {
			s, err := New(c, smallConfig(Base), ScaleOpts{})
			if err != nil {
				return err
			}
			s.Step()
			if c.Rank() == 0 {
				out = s.LastIterations
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if i1, i8 := iters(1), iters(8); i8 < i1 {
		t.Errorf("PCG iterations fell with more ranks: %d @1 vs %d @8", i1, i8)
	}
}

func TestScaleCappingKeepsVirtualTime(t *testing.T) {
	conf := Config{MeshCells: 32768, Steps: 1, Variant: Base, Seed: 4}
	elapsed := func(sc ScaleOpts) float64 {
		st, err := mpi.Run(2, cfg(false), func(c *mpi.Comm) error {
			_, err := Run(c, conf, sc)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	full := elapsed(ScaleOpts{})
	capped := elapsed(ScaleOpts{MaxCellsPerRank: 1728, MaxDropletsPerRank: 256})
	if ratio := capped / full; ratio < 0.3 || ratio > 3 {
		t.Errorf("capped %v vs full %v (ratio %v)", capped, full, ratio)
	}
}

func TestDeterministic(t *testing.T) {
	once := func() float64 {
		st, err := mpi.Run(3, cfg(false), func(c *mpi.Comm) error {
			_, err := Run(c, smallConfig(Base), ScaleOpts{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	if a, b := once(), once(); a != b {
		t.Errorf("pressure solver not deterministic: %v vs %v", a, b)
	}
}

func TestRejectsUndecomposableRankCount(t *testing.T) {
	// 5 ranks on a 2x2x2-cell mesh cannot all get cells.
	_, err := mpi.Run(5, cfg(false), func(c *mpi.Comm) error {
		_, err := New(c, Config{MeshCells: 8, Steps: 1}, ScaleOpts{})
		if err == nil {
			return fmt.Errorf("undecomposable rank count accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVelocityFieldEvolves(t *testing.T) {
	_, err := mpi.Run(2, cfg(false), func(c *mpi.Comm) error {
		s, err := New(c, smallConfig(Base), ScaleOpts{})
		if err != nil {
			return err
		}
		before := make([]float64, len(s.u))
		copy(before, s.u)
		s.Step()
		changed := false
		for i := range s.u {
			if s.u[i] != before[i] {
				changed = true
				break
			}
		}
		if !changed {
			return fmt.Errorf("velocity field frozen after a step")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBaseSprayRepresentsConfiguredDroplets: however few droplets the
// capped ranks simulate, the Base spray stands for the configured
// population, dropletsPerCell × MeshCells (7M on the paper's 28M-cell
// case), before and after a step.
func TestBaseSprayRepresentsConfiguredDroplets(t *testing.T) {
	conf := Config{MeshCells: 28_000_000, Steps: 1, Seed: 1}
	want := 0.25 * float64(conf.MeshCells)
	_, err := mpi.Run(64, cfg(false), func(c *mpi.Comm) error {
		s, err := New(c, conf, Production())
		for step := 0; err == nil && step < 2; step++ {
			if got := s.cloud.TrueCount(); math.Abs(got-want) > 1e-9*want {
				return fmt.Errorf("after %d steps the spray represents %v droplets, configured %v", step, got, want)
			}
			s.Step()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaceIndicesMatchesCellFace: the one face walk over a box's cell dims
// lists the cells of every face as cellFace does, in its order, on one
// cell, on boxes one cell thick along each axis and on odd sizes.
func TestFaceIndicesMatchesCellFace(t *testing.T) {
	for _, n := range [][3]int{{1, 1, 1}, {1, 4, 5}, {4, 1, 5}, {4, 5, 1}, {3, 5, 7}, {7, 3, 5}, {5, 7, 3}} {
		d := mesh.Dims{NI: n[0], NJ: n[1], NK: n[2]}
		for axis := 0; axis < 3; axis++ {
			for _, dir := range []int{-1, 1} {
				if got, want := mesh.FaceIndices(d, axis, dir), cellFace(d, axis, dir); !slices.Equal(got, want) {
					t.Errorf("%v axis %d dir %d: %v, want %v", d, axis, dir, got, want)
				}
			}
		}
	}
}

// cellFace is the pressure proxy's face walk written out per axis, the
// reference for mesh.FaceIndices on cell dims.
func cellFace(d mesh.Dims, axis, dir int) []int {
	idx := func(i, j, k int) int { return (k*d.NJ+j)*d.NI + i }
	var out []int
	switch axis {
	case 0:
		i := 0
		if dir > 0 {
			i = d.NI - 1
		}
		for k := 0; k < d.NK; k++ {
			for j := 0; j < d.NJ; j++ {
				out = append(out, idx(i, j, k))
			}
		}
	case 1:
		j := 0
		if dir > 0 {
			j = d.NJ - 1
		}
		for k := 0; k < d.NK; k++ {
			for i := 0; i < d.NI; i++ {
				out = append(out, idx(i, j, k))
			}
		}
	default:
		k := 0
		if dir > 0 {
			k = d.NK - 1
		}
		for j := 0; j < d.NJ; j++ {
			for i := 0; i < d.NI; i++ {
				out = append(out, idx(i, j, k))
			}
		}
	}
	return out
}
