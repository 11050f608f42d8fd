package mgcfd

import (
	"math"
	"testing"

	"cpx/internal/mpi"
)

// TestGoldenResidual pins the bits of Run's residual norm after 3 steps
// on one rank of a 16³ cube and on 6 capped ranks at Production() scale.
// The norm feeds no digest or clock, so this is the one end-to-end check
// of the sum Step's "residual" region reduces: each rank's terms must
// arrive in node order from 0.0. Every rank must report the same value.
// The bits were recorded while the residuals were still node-sized
// arrays summed after the cascade.
func TestGoldenResidual(t *testing.T) {
	for _, g := range []struct {
		name  string
		ranks int
		cells int64
		sc    ScaleOpts
		bits  uint64
	}{
		{"16³ on 1 rank", 1, 4096, ScaleOpts{}, 0x4033b5ecd30a4d74},
		{"Production() on 6 ranks", 6, 3_000_000, Production(), 0x4044c6e300dc45f0},
	} {
		res := make([]float64, g.ranks)
		_, err := mpi.Run(g.ranks, cfg(), func(c *mpi.Comm) error {
			st, err := Run(c, Config{MeshCells: g.cells, Steps: 3, Seed: 3}, g.sc)
			if err != nil {
				return err
			}
			res[c.Rank()] = st.Residual
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for r, v := range res {
			if got := math.Float64bits(v); got != g.bits {
				t.Errorf("%s: rank %d residual %v (%#x), golden %v (%#x)", g.name, r, v, got, math.Float64frombits(g.bits), g.bits)
			}
		}
	}
}
