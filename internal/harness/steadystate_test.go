package harness

import (
	"runtime"
	"testing"

	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
)

// runBytes is the host memory one 4-rank run of steps steps allocates,
// set-up included.
func runBytes(t *testing.T, steps int, run func(c *mpi.Comm, steps int) error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mpi.Run(4, quick().mpiConfig(false), func(c *mpi.Comm) error { return run(c, steps) }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSteadyStateAllocation doubles the step count of a 4-rank run of
// each solver proxy and bounds what the extra steps allocate, in bytes
// per rank per step. Set-up and first-use sizing cancel in the
// difference; what is left is the one payload clone per message (the
// receiver owns it, so it cannot be reused) and nothing that scales with
// the working set. SIMPIC's messages are a few values each and come out
// of the rank's payload arena; the other two bounds are the face-payload
// clones measured when this was written (164 and 387 kB) plus a quarter.
// With the working vectors allocated afresh each step the same cases
// cost 328 kB, 399 kB and 8.8 MB per rank-step. SIMPIC runs few steps
// so that no rank's population outgrows New's append headroom.
func TestSteadyStateAllocation(t *testing.T) {
	for _, g := range []struct {
		name  string
		steps int
		bound float64 // bytes per rank per step
		run   func(c *mpi.Comm, steps int) error
	}{
		{"simpic", 8, 1 << 10, func(c *mpi.Comm, steps int) error {
			s, err := simpic.New(c, simpic.Config{Cells: 512, ParticlesPerCell: 40, Steps: 1, Seed: 2, FieldEvery: 2}, simpic.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step()
			}
			return err
		}},
		{"mgcfd", 10, 205e3, func(c *mpi.Comm, steps int) error {
			s, err := mgcfd.New(c, mgcfd.Config{MeshCells: 32_768, Steps: 1, Seed: 1}, mgcfd.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step()
			}
			return err
		}},
		{"pressure", 3, 485e3, func(c *mpi.Comm, steps int) error {
			s, err := pressure.New(c, pressure.Config{MeshCells: 32_768, Steps: 1, Seed: 1}, pressure.ScaleOpts{})
			for i := 0; err == nil && i < steps; i++ {
				s.Step()
			}
			return err
		}},
	} {
		short, long := runBytes(t, g.steps, g.run), runBytes(t, 2*g.steps, g.run)
		perRankStep := (float64(long) - float64(short)) / float64(4*g.steps)
		t.Logf("%s: %.0f bytes per rank-step", g.name, perRankStep)
		if perRankStep > g.bound {
			t.Errorf("%s: the second %d steps allocate %.0f bytes per rank-step, bound %.0f", g.name, g.steps, perRankStep, g.bound)
		}
	}
}
