package simpic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

func cfg() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster(), Watchdog: 60 * time.Second}
}

// thomas solves a general tridiagonal system: sub/diag/super are the
// three diagonals (sub[0] and super[n-1] unused), d the right-hand side.
// Nothing is modified; the solution comes back in a fresh slice. It is
// the reference the field solver's factored constant-coefficient solve
// (fieldSolver.solveSegment) is held to, bit for bit.
func thomas(sub, diag, super, d []float64) []float64 {
	n := len(diag)
	if n == 0 {
		return nil
	}
	cp := make([]float64, n)
	dp := make([]float64, n)
	cp[0] = super[0] / diag[0]
	dp[0] = d[0] / diag[0]
	for i := 1; i < n; i++ {
		m := diag[i] - sub[i]*cp[i-1]
		if i < n-1 {
			cp[i] = super[i] / m
		}
		dp[i] = (d[i] - sub[i]*dp[i-1]) / m
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x
}

func TestThomasSolvesTridiagonal(t *testing.T) {
	n := 50
	sub := make([]float64, n)
	diag := make([]float64, n)
	super := make([]float64, n)
	d := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		sub[i], diag[i], super[i] = -1, 2.5, -1
		d[i] = rng.NormFloat64()
	}
	x := thomas(sub, diag, super, d)
	for i := 0; i < n; i++ {
		s := diag[i] * x[i]
		if i > 0 {
			s += sub[i] * x[i-1]
		}
		if i < n-1 {
			s += super[i] * x[i+1]
		}
		if math.Abs(s-d[i]) > 1e-10 {
			t.Fatalf("thomas residual at %d: %v", i, s-d[i])
		}
	}
}

func TestThomasEmpty(t *testing.T) {
	if x := thomas(nil, nil, nil, nil); x != nil {
		t.Error("empty system should give nil")
	}
}

// serialPoisson solves the full tridiagonal system directly.
func serialPoisson(f []float64) []float64 {
	n := len(f)
	sub := make([]float64, n)
	diag := make([]float64, n)
	super := make([]float64, n)
	for i := range diag {
		sub[i], diag[i], super[i] = -1, 2, -1
	}
	return thomas(sub, diag, super, f)
}

// TestSolveSegmentMatchesThomasBitwise holds the factored solve to the
// general one on the (-1, 2, -1) operator: same operations in the same
// order, so the same bits, at every segment length a rank can own.
func TestSolveSegmentMatchesThomasBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
		for _, cells := range []int{2, 3, 4, 17, 126, 1000} {
			fs, err := newFieldSolver(c, cells, 1, 1)
			if err != nil {
				return err
			}
			d := make([]float64, cells-1)
			for i := range d {
				d[i] = rng.NormFloat64()
			}
			want := serialPoisson(d)
			fs.solveSegment(d)
			for i := range d {
				if math.Float64bits(d[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("%d cells: x[%d] = %v, thomas gives %v", cells, i, d[i], want[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelFieldSolveMatchesSerial(t *testing.T) {
	const cells = 64
	// Global RHS at interior nodes 1..cells-1.
	rng := rand.New(rand.NewSource(2))
	f := make([]float64, cells-1)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	want := serialPoisson(f)

	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		_, err := mpi.Run(p, cfg(), func(c *mpi.Comm) error {
			fs, err := newFieldSolver(c, cells, 1, 1)
			if err != nil {
				return err
			}
			local := make([]float64, fs.ownedNodes())
			for i := range local {
				local[i] = f[fs.lo-1+i] // f is indexed from node 1
			}
			phi, gl, gr := fs.Solve(local)
			for i := range phi {
				if math.Abs(phi[i]-want[fs.lo-1+i]) > 1e-9 {
					return fmt.Errorf("p=%d rank %d: phi[node %d] = %v, want %v",
						p, c.Rank(), fs.lo+i, phi[i], want[fs.lo-1+i])
				}
			}
			// Ghosts must match the serial solution too.
			if fs.lo > 1 {
				if math.Abs(gl-want[fs.lo-2]) > 1e-9 {
					return fmt.Errorf("p=%d rank %d: ghostL %v, want %v", p, c.Rank(), gl, want[fs.lo-2])
				}
			} else if gl != 0 {
				return fmt.Errorf("wall ghostL = %v", gl)
			}
			if fs.hi < cells {
				if math.Abs(gr-want[fs.hi-1]) > 1e-9 {
					return fmt.Errorf("p=%d rank %d: ghostR %v, want %v", p, c.Rank(), gr, want[fs.hi-1])
				}
			} else if gr != 0 {
				return fmt.Errorf("wall ghostR = %v", gr)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFieldSolverRejectsTooManyRanks(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		if _, err := newFieldSolver(c, 6, 1, 1); err == nil {
			return fmt.Errorf("6 cells over 4 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cells: 1, ParticlesPerCell: 1, Steps: 1},
		{Cells: 10, ParticlesPerCell: 0, Steps: 1},
		{Cells: 10, ParticlesPerCell: 1, Steps: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if err := (Config{Cells: 10, ParticlesPerCell: 1, Steps: 1}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestBaseSTCAnchors(t *testing.T) {
	for _, tc := range []struct {
		mesh int64
		ppc  int
	}{{28_000_000, 100}, {84_000_000, 300}, {380_000_000, 1800}} {
		c := BaseSTC(tc.mesh)
		if c.Cells != 512_000 || c.ParticlesPerCell != tc.ppc || c.Steps != 50_000 {
			t.Errorf("BaseSTC(%d) = %+v", tc.mesh, c)
		}
	}
	// Interpolation between anchors stays sane and monotone.
	if BaseSTC(56_000_000).ParticlesPerCell != 200 {
		t.Errorf("interpolated ppc = %d, want 200", BaseSTC(56_000_000).ParticlesPerCell)
	}
	if BaseSTC(100).ParticlesPerCell < 1 {
		t.Error("tiny mesh must clamp to >= 1 ppc")
	}
}

func TestOptimizedSTCMatchesPaper(t *testing.T) {
	c := OptimizedSTC()
	if c.Cells != 1_180_000 || c.ParticlesPerCell != 60_000 || c.Steps != 450 {
		t.Errorf("OptimizedSTC = %+v", c)
	}
}

func TestParticleCountConservedWithReflectingWalls(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 20, Steps: 30, Seed: 3}
	for _, p := range []int{1, 2, 4} {
		_, err := mpi.Run(p, cfg(), func(comm *mpi.Comm) error {
			s, err := New(comm, c, ScaleOpts{})
			if err != nil {
				return err
			}
			want := s.ParticleCount()
			for i := 0; i < c.Steps; i++ {
				s.Step()
			}
			if got := s.ParticleCount(); got != want {
				return fmt.Errorf("p=%d: particles %d -> %d", p, want, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestChargeConservedAcrossMigration(t *testing.T) {
	c := Config{Cells: 48, ParticlesPerCell: 10, Steps: 1, Seed: 4}
	_, err := mpi.Run(3, cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{})
		if err != nil {
			return err
		}
		before := s.TotalCharge()
		for i := 0; i < 10; i++ {
			s.Step()
		}
		after := s.TotalCharge()
		// Charge deposited to wall nodes is not part of the unknowns, so
		// allow a small leak tolerance proportional to wall population.
		if math.Abs(after-before) > 0.05*math.Abs(before) {
			return fmt.Errorf("charge drifted: %v -> %v", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelMatchesSerialPhysics(t *testing.T) {
	// Kinetic energy after N steps should agree between 1 and 4 ranks to
	// within a loose tolerance (identical loading is not possible since
	// loading is per-rank, so compare statistically: same config, same
	// thermal scale).
	c := Config{Cells: 128, ParticlesPerCell: 50, Steps: 50, Seed: 5}
	energy := func(p int) float64 {
		var out float64
		_, err := mpi.Run(p, cfg(), func(comm *mpi.Comm) error {
			st, err := Run(comm, c, ScaleOpts{})
			if err != nil {
				return err
			}
			tot := comm.AllreduceScalar(st.KineticEnergy, mpi.Sum)
			if comm.Rank() == 0 {
				out = tot
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	e1, e4 := energy(1), energy(4)
	if e1 <= 0 || e4 <= 0 {
		t.Fatalf("non-positive kinetic energy: %v %v", e1, e4)
	}
	if ratio := e4 / e1; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("kinetic energy differs wildly across rank counts: %v vs %v", e1, e4)
	}
}

func TestVelocitiesBounded(t *testing.T) {
	// The electrostatic field of a near-uniform plasma must not blow up.
	c := Config{Cells: 64, ParticlesPerCell: 30, Steps: 100, Seed: 6}
	_, err := mpi.Run(2, cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{})
		if err != nil {
			return err
		}
		for i := 0; i < c.Steps; i++ {
			s.Step()
		}
		if vmax := s.maxAbsVelocity(); vmax > 100*c.withDefaults().VTherm {
			return fmt.Errorf("velocities blew up: %v", vmax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaleOptsCapsMemoryButChargesTrueWork(t *testing.T) {
	c := Config{Cells: 4096, ParticlesPerCell: 200, Steps: 2, Seed: 7}
	timeFor := func(sc ScaleOpts) float64 {
		st, err := mpi.Run(2, cfg(), func(comm *mpi.Comm) error {
			_, err := Run(comm, c, sc)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	full := timeFor(ScaleOpts{})
	capped := timeFor(ScaleOpts{MaxParticlesPerRank: 500, MaxCellsPerRank: 512})
	// Charged virtual time must be roughly the same despite the tiny
	// working set (within 20%: particle distribution effects are small).
	if ratio := capped / full; ratio < 0.5 || ratio > 1.5 {
		t.Errorf("scaled run virtual time off: capped %v vs full %v", capped, full)
	}
}

func TestSampledFraction(t *testing.T) {
	c := Config{Cells: 10, ParticlesPerCell: 1, Steps: 1000}
	if f := SampledFraction(c, ScaleOpts{SampleSteps: 10}); f != 100 {
		t.Errorf("fraction = %v, want 100", f)
	}
	if f := SampledFraction(c, ScaleOpts{}); f != 1 {
		t.Errorf("fraction = %v, want 1", f)
	}
	if f := SampledFraction(c, ScaleOpts{SampleSteps: 5000}); f != 1 {
		t.Errorf("oversampling fraction = %v, want 1", f)
	}
}

func TestRunDeterministic(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 10, Steps: 20, Seed: 8}
	once := func() (float64, float64) {
		var ke, elapsed float64
		st, err := mpi.Run(3, cfg(), func(comm *mpi.Comm) error {
			s, err := Run(comm, c, ScaleOpts{})
			if err != nil {
				return err
			}
			tot := comm.AllreduceScalar(s.KineticEnergy, mpi.Sum)
			if comm.Rank() == 0 {
				ke = tot
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		elapsed = st.Elapsed
		return ke, elapsed
	}
	ke1, t1 := once()
	ke2, t2 := once()
	if ke1 != ke2 || t1 != t2 {
		t.Errorf("run not deterministic: ke %v/%v elapsed %v/%v", ke1, ke2, t1, t2)
	}
}

func TestMoreParticlesCostMoreTime(t *testing.T) {
	run := func(ppc int) float64 {
		c := Config{Cells: 256, ParticlesPerCell: ppc, Steps: 3, Seed: 9}
		st, err := mpi.Run(2, cfg(), func(comm *mpi.Comm) error {
			_, err := Run(comm, c, ScaleOpts{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	if !(run(100) > run(10)) {
		t.Error("10x particles should cost more virtual time")
	}
}

func TestBoundarySampleAndAbsorb(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 5, Steps: 1, Seed: 10}
	_, err := mpi.Run(1, cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{})
		if err != nil {
			return err
		}
		vals := s.BoundarySample(7)
		if len(vals) != 7 {
			return fmt.Errorf("sample length %d", len(vals))
		}
		before := s.pv[0]
		s.AbsorbBoundary([]float64{0.5})
		if s.pv[0] == before {
			return fmt.Errorf("absorb did not nudge velocity")
		}
		// Out-of-range transfers are ignored.
		cur := s.pv[0]
		s.AbsorbBoundary([]float64{99})
		if s.pv[0] != cur {
			return fmt.Errorf("non-physical transfer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFieldSubcyclingKeepsPhysicsSane(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 20, Steps: 40, Seed: 11, FieldEvery: 2}
	_, err := mpi.Run(2, cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{})
		if err != nil {
			return err
		}
		want := s.ParticleCount()
		for i := 0; i < c.Steps; i++ {
			s.Step()
		}
		if got := s.ParticleCount(); got != want {
			return fmt.Errorf("subcycled run lost particles: %d -> %d", want, got)
		}
		if vmax := s.maxAbsVelocity(); vmax > 100*c.withDefaults().VTherm {
			return fmt.Errorf("subcycled velocities blew up: %v", vmax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepBlockStretchesCost(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 10, Steps: 10, Seed: 12}
	elapsed := func(block bool) float64 {
		st, err := mpi.Run(2, cfg(), func(comm *mpi.Comm) error {
			s, err := New(comm, c, ScaleOpts{})
			if err != nil {
				return err
			}
			if block {
				s.StepBlock(1, 100)
			} else {
				s.Step()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	one, hundred := elapsed(false), elapsed(true)
	if ratio := hundred / one; ratio < 20 {
		t.Errorf("StepBlock(1,100) only %vx of a single step", ratio)
	}
}

func TestStepsPerPressureStep(t *testing.T) {
	if got := BaseSTC(28_000_000).StepsPerPressureStep(); got != 5000 {
		t.Errorf("BaseSTC steps/pressure-step = %d, want 5000", got)
	}
	if got := OptimizedSTC().StepsPerPressureStep(); got != 45 {
		t.Errorf("OptimizedSTC steps/pressure-step = %d, want 45", got)
	}
	tiny := Config{Cells: 10, ParticlesPerCell: 1, Steps: 3}
	if got := tiny.StepsPerPressureStep(); got != 1 {
		t.Errorf("tiny config steps/pressure-step = %d, want >= 1", got)
	}
}

func TestBaseSTCWeightAnchors(t *testing.T) {
	// The per-case calibration weights (DESIGN.md par.6).
	for _, tc := range []struct {
		mesh   int64
		weight float64
	}{{28_000_000, 1.30}, {84_000_000, 1.60}, {380_000_000, 1.11}} {
		if w := BaseSTC(tc.mesh).ParticleWeight; math.Abs(w-tc.weight) > 1e-9 {
			t.Errorf("BaseSTC(%d) weight = %v, want %v", tc.mesh, w, tc.weight)
		}
	}
	// Interpolation stays within the anchor envelope.
	for _, mesh := range []int64{40_000_000, 150_000_000, 300_000_000} {
		w := BaseSTC(mesh).ParticleWeight
		if w < 1.0 || w > 1.75 {
			t.Errorf("BaseSTC(%d) weight %v outside envelope", mesh, w)
		}
	}
}
