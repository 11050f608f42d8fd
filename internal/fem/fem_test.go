package fem

import (
	"fmt"
	"math"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/sparse"
)

func cfgM() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster()}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{NAxial: 1, NCirc: 8, Steps: 1}).Validate(); err == nil {
		t.Error("too-thin shell accepted")
	}
	if err := (Config{NAxial: 4, NCirc: 8, Steps: 0}).Validate(); err == nil {
		t.Error("zero steps accepted")
	}
	if err := (Config{NAxial: 4, NCirc: 8, Steps: 1}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestQuadStiffnessProperties(t *testing.T) {
	ke := quadStiffness(0.5, 0.3, 2.0)
	for p := 0; p < 4; p++ {
		// Symmetry.
		for q := 0; q < 4; q++ {
			if math.Abs(ke[p][q]-ke[q][p]) > 1e-14 {
				t.Fatalf("element stiffness not symmetric at (%d,%d)", p, q)
			}
		}
		// Zero row sums (constant temperature gives zero flux).
		sum := 0.0
		for q := 0; q < 4; q++ {
			sum += ke[p][q]
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 0", p, sum)
		}
		// Positive diagonal.
		if ke[p][p] <= 0 {
			t.Fatalf("diagonal %d not positive", p)
		}
	}
}

func TestAssembleGlobalProperties(t *testing.T) {
	cfg := Config{NAxial: 4, NCirc: 6, Steps: 1}.withDefaults()
	k, mass := Assemble(cfg)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.Rows != cfg.NumNodes() {
		t.Fatalf("K is %d rows, want %d nodes", k.Rows, cfg.NumNodes())
	}
	// Global K symmetric with zero row sums (pure Neumann conduction).
	if !k.EqualWithin(k.Transpose(), 1e-12) {
		t.Error("global stiffness not symmetric")
	}
	for i := 0; i < k.Rows; i++ {
		sum := 0.0
		for kk := k.RowPtr[i]; kk < k.RowPtr[i+1]; kk++ {
			sum += k.Val[kk]
		}
		if math.Abs(sum) > 1e-10 {
			t.Fatalf("K row %d sums to %v", i, sum)
		}
	}
	// Total lumped mass = rho*c * shell area.
	total := 0.0
	for _, m := range mass {
		total += m
	}
	area := length * 2 * math.Pi * radius
	if math.Abs(total-rhoC*area)/area > 1e-10 {
		t.Errorf("total mass %v, want %v", total, rhoC*area)
	}
}

func TestPeriodicWrap(t *testing.T) {
	cfg := Config{NAxial: 2, NCirc: 5, Steps: 1}
	if cfg.nodeID(0, 5) != cfg.nodeID(0, 0) {
		t.Error("circumferential wrap broken")
	}
	if cfg.nodeID(1, -1) != cfg.nodeID(1, 4) {
		t.Error("negative wrap broken")
	}
	// The wrap couples the seam: K[0, NCirc-1] must be nonzero.
	k, _ := Assemble(cfg.withDefaults())
	if k.At(0, 4) == 0 {
		t.Error("seam nodes not coupled: shell is not periodic")
	}
}

func TestMeanTemperatureConserved(t *testing.T) {
	// Pure conduction with no loads conserves energy exactly.
	cfg := Config{NAxial: 6, NCirc: 8, Steps: 10, Seed: 1}
	for _, p := range []int{1, 3} {
		_, err := mpi.Run(p, cfgM(), func(c *mpi.Comm) error {
			s, err := New(c, cfg)
			if err != nil {
				return err
			}
			before := s.MeanTemperature()
			for i := 0; i < cfg.Steps; i++ {
				if _, err := s.Step(); err != nil {
					return err
				}
			}
			after := s.MeanTemperature()
			if math.Abs(after-before) > 1e-6*before {
				return fmt.Errorf("p=%d: mean T drifted %v -> %v", p, before, after)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiffusionSmoothsRipple(t *testing.T) {
	cfg := Config{NAxial: 6, NCirc: 8, Steps: 50, Seed: 2}
	_, err := mpi.Run(2, cfgM(), func(c *mpi.Comm) error {
		s, err := New(c, cfg)
		if err != nil {
			return err
		}
		// Sharpest spatial mode: alternating hot/cold nodes decay fastest.
		lo := s.dist.RowLo
		for i := range s.T {
			if (lo+i)%2 == 0 {
				s.T[i] = 310
			} else {
				s.T[i] = 290
			}
		}
		spreadBefore := s.MaxTemperature() - s.MeanTemperature()
		for i := 0; i < cfg.Steps; i++ {
			if _, err := s.Step(); err != nil {
				return err
			}
		}
		spreadAfter := s.MaxTemperature() - s.MeanTemperature()
		if !(spreadAfter < spreadBefore/2) {
			return fmt.Errorf("diffusion did not smooth: spread %v -> %v", spreadBefore, spreadAfter)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeatLoadRaisesTemperature(t *testing.T) {
	cfg := Config{NAxial: 4, NCirc: 6, Steps: 20, Seed: 3}
	_, err := mpi.Run(2, cfgM(), func(c *mpi.Comm) error {
		s, err := New(c, cfg)
		if err != nil {
			return err
		}
		before := s.MeanTemperature()
		lo := s.dist.RowLo
		s.SetHeatLoad(lo, 5.0)
		for i := 0; i < cfg.Steps; i++ {
			if _, err := s.Step(); err != nil {
				return err
			}
		}
		if after := s.MeanTemperature(); !(after > before) {
			return fmt.Errorf("heating did not raise mean T: %v -> %v", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cfg := Config{NAxial: 5, NCirc: 7, Steps: 5, Seed: 4}
	finalT := func(p int) []float64 {
		out := make([]float64, cfg.NumNodes())
		_, err := mpi.Run(p, cfgM(), func(c *mpi.Comm) error {
			s, err := New(c, cfg)
			if err != nil {
				return err
			}
			for i := 0; i < cfg.Steps; i++ {
				if _, err := s.Step(); err != nil {
					return err
				}
			}
			all := c.Allgather(s.T)
			if c.Rank() == 0 {
				i := 0
				for _, part := range all {
					copy(out[i:], part)
					i += len(part)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := finalT(1), finalT(4)
	for i := range a {
		// The iterates differ only by the CG tolerance (the block
		// preconditioner depends on the partition).
		if math.Abs(a[i]-b[i]) > 1e-3 {
			t.Fatalf("node %d differs between 1 and 4 ranks: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAbsorbBoundaryCreatesLoads(t *testing.T) {
	cfg := Config{NAxial: 4, NCirc: 6, Steps: 1, Seed: 5}
	_, err := mpi.Run(1, cfgM(), func(c *mpi.Comm) error {
		s, err := New(c, cfg)
		if err != nil {
			return err
		}
		hot := make([]float64, 5)
		for i := range hot {
			hot[i] = 1500 // hot gas
		}
		s.AbsorbBoundary(hot)
		if s.Q[0] <= 0 {
			return fmt.Errorf("hot gas produced no heat load: %v", s.Q[0])
		}
		// Out-of-range values guarded.
		s.AbsorbBoundary([]float64{1e9})
		if s.Q[0] > 1000 {
			return fmt.Errorf("non-physical transfer accepted: %v", s.Q[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSystemMatrixSPD(t *testing.T) {
	cfg := Config{NAxial: 3, NCirc: 5, Steps: 1}.withDefaults()
	k, mass := Assemble(cfg)
	n := k.Rows
	var ri, ci []int
	var v []float64
	for i := 0; i < n; i++ {
		ri = append(ri, i)
		ci = append(ci, i)
		v = append(v, mass[i]/dt)
	}
	a := sparse.Add(k, sparse.FromCOO(n, n, ri, ci, v), 1, 1)
	// SPD check: x'Ax > 0 for a few random-ish vectors.
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i*(trial+1)) * 0.37)
		}
		y := make([]float64, n)
		a.MulVec(x, y)
		dot := 0.0
		for i := range x {
			dot += x[i] * y[i]
		}
		if dot <= 0 {
			t.Fatalf("system matrix not positive definite (trial %d: %v)", trial, dot)
		}
	}
}

// MaxTemperature returns the global max temperature (collective).
func (s *Solver) MaxTemperature() float64 {
	m := math.Inf(-1)
	for _, t := range s.T {
		if t > m {
			m = t
		}
	}
	return s.comm.AllreduceScalar(m, mpi.Max)
}

// MeanTemperature returns the mass-weighted global mean temperature
// (collective) — conserved by pure conduction with no loads.
func (s *Solver) MeanTemperature() float64 {
	localTM, localM := 0.0, 0.0
	for i := range s.T {
		localTM += s.mass[i] * s.T[i]
		localM += s.mass[i]
	}
	sum := s.comm.Allreduce([]float64{localTM, localM}, mpi.Sum)
	return sum[0] / sum[1]
}

// SetHeatLoad sets the heat source on an owned node (global id).
func (s *Solver) SetHeatLoad(globalNode int, q float64) {
	if globalNode >= s.dist.RowLo && globalNode < s.dist.RowHi {
		s.Q[globalNode-s.dist.RowLo] = q
	}
}
