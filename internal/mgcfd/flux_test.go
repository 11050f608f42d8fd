package mgcfd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpx/internal/mpi"
)

// pressureOf is the pressure helper of the per-variable flux loop below.
func pressureOf(q [][]float64, n int) float64 {
	const gamma = 1.4
	rho := q[0][n]
	if rho <= 0 {
		rho = 1e-10
	}
	ke := (q[1][n]*q[1][n] + q[2][n]*q[2][n] + q[3][n]*q[3][n]) / (2 * rho)
	p := (gamma - 1) * (q[4][n] - ke)
	if p <= 0 {
		p = 1e-10
	}
	return p
}

// referenceFlux is the edge loop computeFlux replaced: two pressureOf
// calls, math.Max and a five-variable loop with the momentum and energy
// terms as branches. It accumulates into res, which it zeroes first.
func referenceFlux(l *level, res [][]float64) {
	for v := 0; v < NVAR; v++ {
		r := res[v]
		for i := range r {
			r[i] = 0
		}
	}
	q := l.q
	for _, e := range l.edges {
		a, b := int(e.A), int(e.B)
		pa, pb := pressureOf(q, a), pressureOf(q, b)
		ca := math.Sqrt(1.4 * pa / math.Max(q[0][a], 1e-10))
		cb := math.Sqrt(1.4 * pb / math.Max(q[0][b], 1e-10))
		ua := q[1][a] / math.Max(q[0][a], 1e-10)
		ub := q[1][b] / math.Max(q[0][b], 1e-10)
		lam := math.Max(math.Abs(ua)+ca, math.Abs(ub)+cb)
		for v := 0; v < NVAR; v++ {
			fa := q[v][a] * ua
			fb := q[v][b] * ub
			if v == 1 {
				fa += pa
				fb += pb
			}
			if v == 4 {
				fa += pa * ua
				fb += pb * ub
			}
			flux := 0.5*(fa+fb) - 0.5*lam*(q[v][b]-q[v][a])
			res[v][a] -= flux
			res[v][b] += flux
		}
	}
}

// seedStates fills every level's q with seeded node states, mixing
// ordinary flow with the branches of the kernel: density at or below
// zero (-0 included), density in (0, 1e-10), non-positive pressure and
// NaN or infinite components.
func seedStates(s *Sim, rng *rand.Rand) {
	for _, l := range s.levels {
		for n := 0; n < l.nodes; n++ {
			rho := 1 + 0.2*rng.NormFloat64()
			mx, my, mz := rng.NormFloat64(), 0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()
			e := 2.5 + 0.5*rng.NormFloat64()
			switch rng.Intn(12) {
			case 0:
				rho = []float64{0, math.Copysign(0, -1), -rng.Float64()}[rng.Intn(3)]
			case 1:
				// Small momentum keeps the pressure positive, so it
				// depends on rho itself, not on the 1e-10 floor.
				rho = 1e-10 * rng.Float64()
				mx, my, mz = 1e-5*mx, 1e-5*my, 1e-5*mz
			case 2:
				e = -rng.Float64() // pressure clamps to 1e-10
			case 3:
				e = 0.5 * (mx*mx + my*my + mz*mz) / rho // pressure exactly 0 or rounding-close
			case 4:
				switch rng.Intn(3) {
				case 0:
					rho = math.NaN()
				case 1:
					mx = math.NaN()
				default:
					e = math.Inf(1 - 2*rng.Intn(2))
				}
			}
			l.q[0][n], l.q[1][n], l.q[2][n], l.q[3][n], l.q[4][n] = rho, mx, my, mz, e
		}
	}
}

// sameBits reports whether two floats have identical bits, or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestComputeFluxMatchesReference is computeFlux's oracle: on seeded
// states at every multigrid level, the unrolled kernel's residuals equal
// the per-variable loop's bit for bit.
func TestComputeFluxMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, Config{MeshCells: 4096, Steps: 1, Seed: seed}, ScaleOpts{})
			if err != nil {
				return err
			}
			seedStates(s, rand.New(rand.NewSource(seed)))
			for li, l := range s.levels {
				want := allocVars(l.nodes)
				referenceFlux(l, want)
				s.computeFlux(l)
				nan := 0
				for v := range want {
					for n, w := range want[v] {
						if got := l.res[v][n]; !sameBits(got, w) {
							return fmt.Errorf("seed %d level %d: res[%d][%d] = %v (%#x), reference %v (%#x)",
								seed, li, v, n, got, math.Float64bits(got), w, math.Float64bits(w))
						}
						if math.IsNaN(w) {
							nan++
						}
					}
				}
				if nan == 0 || nan == NVAR*l.nodes {
					return fmt.Errorf("seed %d level %d: %d of %d residuals NaN; the states miss a branch", seed, li, nan, NVAR*l.nodes)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
