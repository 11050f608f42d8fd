package harness

import (
	"runtime"
	"testing"

	"cpx/internal/coupler"
	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/particle"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
)

// allocated is the host memory run allocates, set-up included.
func allocated(t *testing.T, run func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// onFourRanks makes a 4-rank run of a solver proxy's rank program.
func onFourRanks(program func(c *mpi.Comm, steps int) error) func(steps int) error {
	return func(steps int) error {
		_, err := mpi.Run(4, quick().mpiConfig(false), func(c *mpi.Comm) error { return program(c, steps) })
		return err
	}
}

// TestSteadyStateAllocation doubles the step count of a small run of
// each solver proxy, and of two coupled runs, and bounds what the extra
// steps allocate, in bytes per rank per step. Set-up, first-use sizing
// and the first exchanges' payload clones cancel in the difference; what
// is left must not scale with the working set: the working vectors are
// kept (DESIGN.md §5.13) and every received payload is released to feed
// a later send (mpi.Comm.Release). SIMPIC and MG-CFD, with fields or
// field-free (mgcfd.Time, whose ranks send empty payloads), are left
// with nothing (10–130 bytes; 1 KiB is the noise floor), and so are the
// two coupled runs: a sliding-plane pair (coupled) and an MG-CFD and a
// SIMPIC instance fanning in to a steady unit of 8 ranks that exchanges
// every step (fan-out), the shape of the engine's steady units. Their
// coupling units rebuild each mapping in the storage of the one it
// replaces, interpolate into kept buffers, and the slices their boundary
// ranks send one way come back through the world's spare store
// (internal/mpi/pool.go); before that they cost 46 kB and 10 kB. The
// other bounds are what was measured when they were written plus a
// quarter: 0.8–1.8 kB for the pressure solver (its Base spray's send
// buffers still growing), 7.7 kB in race builds (their sync.Pool drops
// a share of the recycled message structs, and the pressure solver sends
// the most messages), 13.8 kB for the particle component (steal plans
// and send buffers still growing). With payloads cloned one way and the
// droplet arrays rebuilt each step the same cases cost 0, 164 kB,
// 387 kB, 1.02 MB and 76 kB per rank-step, and with the working vectors
// allocated afresh as well the first three cost 328 kB, 399 kB and
// 8.8 MB. SIMPIC runs few steps so that no rank's population outgrows
// New's append headroom.
func TestSteadyStateAllocation(t *testing.T) {
	for _, g := range []struct {
		name         string
		ranks, steps int
		bound        float64 // bytes per rank per step
		run          func(steps int) error
	}{
		{"simpic", 4, 8, 1 << 10, onFourRanks(func(c *mpi.Comm, steps int) error {
			s, err := simpic.New(c, simpic.Config{Cells: 512, ParticlesPerCell: 40, Steps: 1, Seed: 2, FieldEvery: 2}, simpic.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step()
			}
			return err
		})},
		{"mgcfd", 4, 10, 1 << 10, onFourRanks(func(c *mpi.Comm, steps int) error {
			s, err := mgcfd.New(c, mgcfd.Config{MeshCells: 32_768, Steps: 1, Seed: 1}, mgcfd.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step()
			}
			return err
		})},
		{"mgcfd field-free", 4, 10, 1 << 10, onFourRanks(func(c *mpi.Comm, steps int) error {
			_, err := mgcfd.Time(c, mgcfd.Config{MeshCells: 32_768, Steps: steps, Seed: 1}, mgcfd.ScaleOpts{})
			return err
		})},
		{"pressure", 4, 3, 9.6e3, onFourRanks(func(c *mpi.Comm, steps int) error {
			s, err := pressure.New(c, pressure.Config{MeshCells: 32_768, Steps: 1, Seed: 1}, pressure.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step()
			}
			return err
		})},
		{"particle", 4, 20, 17e3, onFourRanks(func(c *mpi.Comm, steps int) error {
			s, err := particle.New(c, particle.Config{Droplets: 400_000, ConeFraction: 0.15, EvapSteps: 40,
				Strategy: particle.WorkSteal, Seed: 7}, particle.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step(0.02)
			}
			return err
		})},
		{"coupled", 10, 6, 1 << 10, func(steps int) error {
			sim := &coupler.Simulation{
				Instances: []coupler.InstanceSpec{
					{Name: "rowA", Kind: coupler.KindMGCFD, MeshCells: 20_000, Ranks: 4, Seed: 1},
					{Name: "rowB", Kind: coupler.KindMGCFD, MeshCells: 20_000, Ranks: 4, Seed: 2},
				},
				Units: []coupler.UnitSpec{
					{Name: "cu", A: 0, B: 1, Kind: coupler.SlidingPlane, Points: 4000, Ranks: 2, Search: coupler.TreePrefetch},
				},
				DensitySteps: steps, RotationPerStep: 0.002, Scale: coupler.ProductionScale(),
			}
			_, err := sim.Run(quick().mpiConfig(false))
			return err
		}},
		{"fan-out", 16, 6, 1 << 10, func(steps int) error {
			sim := &coupler.Simulation{
				Instances: []coupler.InstanceSpec{
					{Name: "row", Kind: coupler.KindMGCFD, MeshCells: 20_000, Ranks: 4, Seed: 1},
					{Name: "combustor", Kind: coupler.KindSIMPIC, MeshCells: 20_000, Ranks: 4, Seed: 2,
						Simpic: &simpic.Config{Cells: 2048, ParticlesPerCell: 10, Steps: 1}},
				},
				Units: []coupler.UnitSpec{
					{Name: "cu", A: 0, B: 1, Kind: coupler.SteadyState, Points: 4000, Ranks: 8, Search: coupler.TreePrefetch, ExchangeEvery: 1},
				},
				DensitySteps: steps, Scale: coupler.ProductionScale(),
			}
			_, err := sim.Run(quick().mpiConfig(false))
			return err
		}},
	} {
		short := allocated(t, func() error { return g.run(g.steps) })
		long := allocated(t, func() error { return g.run(2 * g.steps) })
		perRankStep := (float64(long) - float64(short)) / float64(g.ranks*g.steps)
		t.Logf("%s: %.0f bytes per rank-step", g.name, perRankStep)
		if perRankStep > g.bound {
			t.Errorf("%s: the second %d steps allocate %.0f bytes per rank-step, bound %.0f", g.name, g.steps, perRankStep, g.bound)
		}
	}
}

// TestSetUpAllocation bounds what New allocates per rank when 64 capped
// ranks (Production() scale) build a solver proxy and stop. A capped
// rank's set-up splits into state it owns — fields, q, droplets,
// particles — and read-only state that is the same bytes on every rank
// of equal dims — the pressure operator and its AMG hierarchy, MG-CFD's
// face lists, SIMPIC's segment factors, the decomposition — which the
// run builds once (mpi.Shared, DESIGN.md §5.12). The bounds are what was
// measured when they were written plus a quarter: 74 kB for the pressure
// solver (its two fields and spray droplets, 59 kB; five fields took
// 92 kB), 170 kB for MG-CFD (q on
// three levels and the 16-plane work vector, 136 kB; node-sized residual
// arrays on every level took it to 233 kB, and computeFlux now keeps
// them in that vector's two-plane window), 6.1 kB for field-free MG-CFD
// (mgcfd.Time with one step: levels and faces, and no q, work vector or
// node lists, 4.9 kB), 200 kB for SIMPIC (its
// particles and the field solver's potential, 158 kB). With every rank
// building its own copies the same cases cost 1.69 MB, 307 kB and, for
// SIMPIC, which also kept a particular-solution vector a rank, 482 kB.
func TestSetUpAllocation(t *testing.T) {
	const ranks = 64
	for _, g := range []struct {
		name  string
		bound float64 // bytes per rank
		build func(c *mpi.Comm) error
	}{
		{"pressure", 74e3, func(c *mpi.Comm) error {
			_, err := pressure.New(c, pressure.Config{MeshCells: 28_000_000, Steps: 1, Seed: 1}, pressure.Production())
			return err
		}},
		{"mgcfd", 170e3, func(c *mpi.Comm) error {
			_, err := mgcfd.New(c, mgcfd.Config{MeshCells: 8_000_000, Steps: 1, Seed: 1}, mgcfd.Production())
			return err
		}},
		{"mgcfd field-free", 6.1e3, func(c *mpi.Comm) error {
			_, err := mgcfd.Time(c, mgcfd.Config{MeshCells: 8_000_000, Steps: 1, Seed: 1}, mgcfd.Production())
			return err
		}},
		{"simpic", 200e3, func(c *mpi.Comm) error {
			_, err := simpic.New(c, simpic.BaseSTC(28_000_000), simpic.Production())
			return err
		}},
	} {
		perRank := float64(allocated(t, func() error {
			_, err := mpi.Run(ranks, quick().mpiConfig(false), g.build)
			return err
		})) / ranks
		t.Logf("%s: %.0f bytes per rank", g.name, perRank)
		if perRank > g.bound {
			t.Errorf("%s: New allocates %.0f bytes per rank, bound %.0f", g.name, perRank, g.bound)
		}
	}
}
