package spray

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

func cfg() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster(), Watchdog: 60 * time.Second}
}

func smallCloud() Config {
	return Config{Droplets: 50_000, ConeFraction: 0.25, Seed: 1}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Droplets: 0}).Validate(); err == nil {
		t.Error("zero droplets accepted")
	}
	if err := (Config{Droplets: 10, ConeFraction: 1.5}).Validate(); err == nil {
		t.Error("cone fraction > 1 accepted")
	}
	if err := smallCloud().Validate(); err != nil {
		t.Error(err)
	}
}

func TestCloudRejectsBadGrid(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		if _, err := NewCloud(c, [3]int{3, 1, 1}, smallCloud(), ScaleOpts{}); err == nil {
			return fmt.Errorf("grid 3x1x1 over 4 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOwnership(t *testing.T) {
	_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{2, 2, 2}, smallCloud(), ScaleOpts{})
		if err != nil {
			return err
		}
		// ownerOf must be the inverse of boxOf membership.
		for r := 0; r < 8; r++ {
			lo, hi := cl.boxOf(r)
			mid := [3]float64{(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, (lo[2] + hi[2]) / 2}
			if got := cl.ownerOf(mid[0], mid[1], mid[2]); got != r {
				return fmt.Errorf("owner of centre of box %d = %d", r, got)
			}
		}
		// Clamping at the domain edges.
		if cl.ownerOf(-0.1, 0.5, 0.5) < 0 || cl.ownerOf(1.1, 0.99, 0.99) >= 8 {
			return fmt.Errorf("edge ownership out of range")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDropletsLandOnOwningRanks(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{4, 1, 1}, smallCloud(), ScaleOpts{})
		if err != nil {
			return err
		}
		for s := 0; s < 5; s++ {
			cl.Step(0.01)
		}
		lo, hi := cl.boxOf(c.Rank())
		for i := range cl.x {
			if !inBox(cl.x[i], cl.y[i], cl.z[i], lo, hi) {
				return fmt.Errorf("rank %d holds droplet at (%v,%v,%v) outside its box",
					c.Rank(), cl.x[i], cl.y[i], cl.z[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInjectorClusteringCausesImbalance(t *testing.T) {
	_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{2, 2, 2}, Config{Droplets: 100_000, ConeFraction: 0.05, Seed: 2}, ScaleOpts{})
		if err != nil {
			return err
		}
		imb := cl.Imbalance()
		if c.Rank() == 0 && imb < 2 {
			return fmt.Errorf("tight cone should give imbalance >= 2, got %v", imb)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPopulationPersists(t *testing.T) {
	// With recycling at the injector, the population must not collapse.
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{4, 1, 1}, Config{Droplets: 20_000, EvapSteps: 50, Seed: 3}, ScaleOpts{})
		if err != nil {
			return err
		}
		initial := cl.Count()
		for s := 0; s < 100; s++ {
			cl.Step(0.01)
		}
		final := cl.Count()
		if final < initial/4 {
			return fmt.Errorf("population collapsed: %d -> %d", initial, final)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributionCostGrowsWithRanks(t *testing.T) {
	// The alltoallv-style schedule must make per-step comm grow with the
	// communicator size — the paper's central spray scaling observation.
	commTime := func(p int) float64 {
		st, err := mpi.Run(p, cfg(), func(c *mpi.Comm) error {
			// Uniform cloud: balanced load isolates the schedule overhead
			// from load-imbalance waiting.
			cl, err := NewCloud(c, [3]int{p, 1, 1},
				Config{Droplets: 50_000, ConeFraction: 1.0, Seed: 1},
				ScaleOpts{MaxDropletsPerRank: 100})
			if err != nil {
				return err
			}
			for s := 0; s < 3; s++ {
				cl.Step(0.01)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.AvgComm()
	}
	if !(commTime(16) > commTime(2)) {
		t.Error("redistribution comm should grow with rank count")
	}
}

func TestTrueCountScaling(t *testing.T) {
	_, err := mpi.Run(2, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{2, 1, 1},
			Config{Droplets: 1_000_000, ConeFraction: 0.5, Seed: 4},
			ScaleOpts{MaxDropletsPerRank: 1000})
		if err != nil {
			return err
		}
		tc := cl.TrueCount()
		// The represented population should be near the configured one
		// (sampling noise aside).
		if tc < 0.2e6 || tc > 2e6 {
			return fmt.Errorf("true count %v far from 1M", tc)
		}
		if cl.Count() > 2*1000*2 {
			return fmt.Errorf("sim count %d exceeds cap", cl.Count())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepDeterministic(t *testing.T) {
	once := func() float64 {
		st, err := mpi.Run(3, cfg(), func(c *mpi.Comm) error {
			cl, err := NewCloud(c, [3]int{3, 1, 1}, smallCloud(), ScaleOpts{})
			if err != nil {
				return err
			}
			for s := 0; s < 5; s++ {
				cl.Step(0.01)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	if a, b := once(), once(); a != b {
		t.Errorf("spray not deterministic: %v vs %v", a, b)
	}
}

func TestRadiiStayPositive(t *testing.T) {
	_, err := mpi.Run(2, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{2, 1, 1}, smallCloud(), ScaleOpts{})
		if err != nil {
			return err
		}
		for s := 0; s < 20; s++ {
			cl.Step(0.01)
		}
		for _, r := range cl.rad {
			if r <= 0 {
				return fmt.Errorf("dead droplet survived redistribution: rad %v", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepWorkPositive(t *testing.T) {
	_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
		cl, err := NewCloud(c, [3]int{1, 1, 1}, smallCloud(), ScaleOpts{})
		if err != nil {
			return err
		}
		w := cl.StepWork()
		if w.Flops <= 0 || w.Bytes <= 0 {
			return fmt.Errorf("work = %+v", w)
		}
		if math.IsNaN(w.Flops) {
			return fmt.Errorf("NaN work")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
