package amg

import (
	"math"
	"math/rand"
	"testing"

	"cpx/internal/sparse"
)

// referencePrecondition is the preconditioner application Precondition
// replaced: clear the iterate, then one cycle from whatever it holds.
func referencePrecondition(h *Hierarchy, b, x []float64) {
	clear(x)
	h.ApplyCycle(b, x)
}

// randomSPD builds an n x n symmetric, strictly diagonally dominant
// matrix with about deg off-diagonal entries per row.
func randomSPD(n, deg int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	var ri, ci []int
	var v []float64
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < deg/2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			a := -rng.Float64()
			ri, ci, v = append(ri, i, j), append(ci, j, i), append(v, a, a)
			rowSum[i] -= a
			rowSum[j] -= a
		}
	}
	for i := 0; i < n; i++ {
		ri, ci, v = append(ri, i), append(ci, i), append(v, rowSum[i]+0.5+rng.Float64())
	}
	return sparse.FromCOO(n, n, ri, ci, v)
}

// withInf returns a copy of a whose first off-diagonal entry of row
// a.Rows/2 is +Inf: A·0 is NaN in that row, so no cycle may skip it.
func withInf(a *sparse.CSR) *sparse.CSR {
	c := *a
	c.Val = append([]float64(nil), a.Val...)
	i := a.Rows / 2
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		if a.ColIdx[k] != i {
			c.Val[k] = math.Inf(1)
			return &c
		}
	}
	panic("withInf: the middle row has no off-diagonal entry")
}

// preconditionInputs are the right-hand sides of the oracle: a normal
// one, one sprinkled with both zeros, subnormals and a NaN, and the zero
// vectors of either sign.
func preconditionInputs(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	plain, special, zero, negZero := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310}
	for i := range plain {
		plain[i] = rng.NormFloat64()
		special[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		if rng.Intn(4) == 0 {
			special[i] = specials[rng.Intn(len(specials))]
		}
		negZero[i] = math.Copysign(0, -1)
	}
	withNaN := append([]float64(nil), special...)
	withNaN[rng.Intn(n)] = math.NaN()
	return [][]float64{plain, special, withNaN, zero, negZero}
}

// TestPreconditionMatchesReference holds Precondition bit for bit to
// clearing the iterate and running ApplyCycle, for every smoother under
// V- and K-cycles and the four interpolations, on two 3-D Laplacians, a
// random SPD matrix and an operator with an infinite entry, and on
// right-hand sides with both zeros, subnormals and NaN. The iterate it
// is handed holds garbage, which Precondition must ignore.
func TestPreconditionMatchesReference(t *testing.T) {
	cases := smootherCycleMatrix()
	for _, in := range []struct {
		name string
		c    Coarsening
		i    Interp
	}{{"Smoothed", Aggregation, Smoothed}, {"Direct", PMISSplit, Direct}} {
		o := DefaultOptions()
		o.Coarsening, o.Interp = in.c, in.i
		cases = append(cases, matrixCase{in.name, o})
	}
	operators := []struct {
		name string
		a    *sparse.CSR
	}{
		{"Poisson3D 11^3", sparse.Poisson3D(11, 11, 11)},
		{"Poisson3D 6x7x5", sparse.Poisson3D(6, 7, 5)},
		{"random SPD", randomSPD(400, 8, 5)},
		{"Inf entry", withInf(sparse.Poisson3D(6, 7, 5))},
	}
	for _, op := range operators {
		inputs := preconditionInputs(op.a.Rows, 31)
		for _, mc := range cases {
			h, err := Setup(op.a, mc.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", op.name, mc.name, err)
			}
			if h.NumLevels() < 2 {
				t.Fatalf("%s %s: one level, so no cycle smooths", op.name, mc.name)
			}
			want, got := make([]float64, op.a.Rows), make([]float64, op.a.Rows)
			for k, b := range inputs {
				referencePrecondition(h, b, want)
				for i := range got {
					got[i] = float64(i) - 0.5
				}
				h.Precondition(b, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s input %d: x[%d] = %v (%#x), reference %v (%#x)", op.name, mc.name, k,
							i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestSmoothFromZeroMatchesProduct holds each smoother's sweep from a
// zero iterate, told that it is zero, to the same sweep forming A·0, bit
// for bit. On the operator with an infinite entry A·0 is NaN in a row, so
// that level must take the product; one sweep leaves the NaN near its
// row, where a skipped product would leave finite values instead.
func TestSmoothFromZeroMatchesProduct(t *testing.T) {
	for _, op := range []struct {
		name string
		a    *sparse.CSR
	}{{"Poisson3D 6x7x5", sparse.Poisson3D(6, 7, 5)}, {"Inf entry", withInf(sparse.Poisson3D(6, 7, 5))}} {
		for _, mc := range smootherCycleMatrix() {
			h, err := Setup(op.a, mc.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", op.name, mc.name, err)
			}
			l, w := h.Levels[0], &h.work[0]
			want, got := make([]float64, op.a.Rows), make([]float64, op.a.Rows)
			for k, b := range preconditionInputs(op.a.Rows, 32) {
				clear(want)
				h.smooth(l, w, b, want, preSweeps, true, false)
				clear(got)
				h.smooth(l, w, b, got, preSweeps, true, true)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s input %d: x[%d] = %v, swept from A·0 %v", op.name, mc.name, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
