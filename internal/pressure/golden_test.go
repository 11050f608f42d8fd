package pressure

import (
	"fmt"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/mpi"
)

// TestGoldenRunFingerprints pins what Run reports and charges for both
// variants, capped and uncapped, on 1, 8, 12 and 128 ranks of a 48³
// cube: one digest over the elapsed time, every rank's clock, compute and
// communication seconds, and rank 0's PCG iteration count, mean velocity
// and set-up time, all as bits. The capped rows bind the cell cap at
// every rank count (864 true cells a rank at 128 ranks). The digests
// were recorded while the momentum sweeps still stepped v and w and the
// scalar sweeps kTurb, fields that nothing reads. -short runs the
// capped rows only.
func TestGoldenRunFingerprints(t *testing.T) {
	capped := ScaleOpts{MaxCellsPerRank: 512, MaxDropletsPerRank: 16, SampleSteps: 2}
	for _, g := range []struct {
		variant Variant
		sc      ScaleOpts
		digests [4]uint64 // on 1, 8, 12 and 128 ranks
	}{
		{Base, ScaleOpts{}, [4]uint64{0xdb0dd733f8a52ed3, 0x18ce1d11f14fba96, 0x9fd3c31a64de9cf3, 0xe2c6e91e78c2854c}},
		{Base, capped, [4]uint64{0x4194d53dc8ce6cdb, 0xe63099a6699137b0, 0x34452f040efb96cb, 0x7df96d805f46d656}},
		{Optimized, ScaleOpts{}, [4]uint64{0xa8f8bfd33bab7a1, 0x9268894f863db5ce, 0x8b2fbb788595f39b, 0x8d2648b0c4e3ab69}},
		{Optimized, capped, [4]uint64{0x948558d82877b401, 0xce0fb40040f5fae6, 0x9982f0251e54d2f6, 0x528aeb079cb50a09}},
	} {
		for i, ranks := range []int{1, 8, 12, 128} {
			name := fmt.Sprintf("%v/cap=%d/%d ranks", g.variant, g.sc.MaxCellsPerRank, ranks)
			if testing.Short() && g.sc.MaxCellsPerRank == 0 {
				continue // uncapped boxes take nine tenths of the test's time
			}
			if got := runFingerprint(t, ranks, Config{MeshCells: 48 * 48 * 48, Steps: 3, Variant: g.variant, Seed: 2}, g.sc); got != g.digests[i] {
				t.Errorf("%s: fingerprint %#x, golden %#x", name, got, g.digests[i])
			}
		}
	}
}

// runFingerprint runs conf on ranks ranks and digests its Stats and
// rank 0's report.
func runFingerprint(t *testing.T, ranks int, conf Config, sc ScaleOpts) uint64 {
	t.Helper()
	var rep *Stats
	st, err := mpi.Run(ranks, cfg(false), func(c *mpi.Comm) error {
		r, err := Run(c, conf, sc)
		if err == nil && c.Rank() == 0 {
			rep = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	d := fault.NewDigest()
	d.Float(st.Elapsed)
	d.Floats(st.Clocks)
	d.Floats(st.Compute)
	d.Floats(st.Comm)
	d.Int(rep.PCGIterations)
	d.Float(rep.MeanVelocity)
	d.Float(rep.SetupTime)
	return d.Sum64()
}
