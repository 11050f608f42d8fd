package mgcfd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpx/internal/mesh"
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
// terms as branches, over the level's mesh.StructuredEdges in their
// order. It accumulates into res, which it zeroes first.
func referenceFlux(l *level, res [][]float64) {
	for v := 0; v < NVAR; v++ {
		r := res[v]
		for i := range r {
			r[i] = 0
		}
	}
	q := l.q
	for _, e := range mesh.StructuredEdges(l.dims) {
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

// fluxMatches runs the reference and computeFlux on level l of s and
// compares their residuals bit for bit, and the closed-form edge count
// the flux is charged for with the edge list's length. It returns how
// many residuals are NaN, so that a caller can check the seeded states
// reach the branches.
func fluxMatches(s *Sim, l *level) (nan int, err error) {
	if got, want := edgeCount(l.dims), len(mesh.StructuredEdges(l.dims)); got != want {
		return 0, fmt.Errorf("dims %v: edgeCount %d, edge list %d", l.dims, got, want)
	}
	want := allocVars(l.nodes)
	referenceFlux(l, want)
	s.computeFlux(l)
	for v := range want {
		for n, w := range want[v] {
			if got := l.res[v][n]; !sameBits(got, w) {
				return 0, fmt.Errorf("dims %v: res[%d][%d] = %v (%#x), reference %v (%#x)",
					l.dims, v, n, got, math.Float64bits(got), w, math.Float64bits(w))
			}
			if math.IsNaN(w) {
				nan++
			}
		}
	}
	return nan, nil
}

// handLevel builds a level of the given dims outside New, for boxes no
// decomposition produces: one cell or one node thick, or a single row.
func handLevel(d mesh.Dims) *level {
	n := int(d.Nodes())
	return &level{dims: d, nodes: n, q: allocVars(n), res: allocVars(n), workMult: 1}
}

// TestComputeFluxMatchesReference is computeFlux's oracle: on seeded
// states the kernel's residuals equal the per-variable loop's bit for
// bit, on every multigrid level of a 16³ cube, of the capped slabs and
// pencils of 6- and 12-rank Production() runs, and on boxes one cell or
// one node thick (a single plane swap, no plane swap, an empty k-pass).
func TestComputeFluxMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, Config{MeshCells: 4096, Steps: 1, Seed: seed}, ScaleOpts{})
			if err != nil {
				return err
			}
			seedStates(s, rand.New(rand.NewSource(seed)))
			for li, l := range s.levels {
				nan, err := fluxMatches(s, l)
				if err != nil {
					return fmt.Errorf("seed %d level %d: %w", seed, li, err)
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
	for _, ranks := range []int{6, 12} {
		_, err := mpi.Run(ranks, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, Config{MeshCells: 3_000_000, Steps: 1, Seed: 3}, Production())
			if err != nil || !s.active {
				return err
			}
			seedStates(s, rand.New(rand.NewSource(int64(ranks*100+c.Rank()))))
			nan, cubes := 0, 0
			for li, l := range s.levels {
				n, err := fluxMatches(s, l)
				if err != nil {
					return fmt.Errorf("%d ranks, rank %d level %d: %w", ranks, c.Rank(), li, err)
				}
				nan += n
				if l.dims.NI == l.dims.NJ && l.dims.NJ == l.dims.NK {
					cubes++
				}
			}
			if cubes == len(s.levels) {
				return fmt.Errorf("%d ranks, rank %d: every level is a cube, want slabs and pencils", ranks, c.Rank())
			}
			if nan == 0 {
				return fmt.Errorf("%d ranks, rank %d: no residual NaN; the states miss a branch", ranks, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := mpi.Run(1, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, Config{MeshCells: 4096, Steps: 1}, ScaleOpts{})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(7))
		for _, d := range []mesh.Dims{{NI: 9, NJ: 5, NK: 1}, {NI: 9, NJ: 5, NK: 0}, {NI: 0, NJ: 6, NK: 3}, {NI: 7, NJ: 0, NK: 0}, {NI: 0, NJ: 0, NK: 4}} {
			l := handLevel(d)
			s.levels = []*level{l}
			s.pack = make([]float64, workLen(s.levels))
			seedStates(s, rng)
			if _, err := fluxMatches(s, l); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
