package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// poisson3DReference is Poisson3D's body before it became Stencil3D's
// assembly: the 7-point Laplacian's triplets through FromCOO.
func poisson3DReference(nx, ny, nz int) *CSR {
	n := nx * ny * nz
	var ri, ci []int
	var v []float64
	id := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				add := func(c int, x float64) { ri = append(ri, r); ci = append(ci, c); v = append(v, x) }
				if k > 0 {
					add(id(i, j, k-1), -1)
				}
				if j > 0 {
					add(id(i, j-1, k), -1)
				}
				if i > 0 {
					add(id(i-1, j, k), -1)
				}
				add(r, 6)
				if i < nx-1 {
					add(id(i+1, j, k), -1)
				}
				if j < ny-1 {
					add(id(i, j+1, k), -1)
				}
				if k < nz-1 {
					add(id(i, j, k+1), -1)
				}
			}
		}
	}
	return FromCOO(n, n, ri, ci, v)
}

// stencilDims are the grids of the stencil oracle: a single cell, a
// column one cell wide (every line one row), a line of two rows (no
// interior row), an odd box, the pressure proxy's capped 11³ block and a
// box long in i and thin in j.
var stencilDims = [][3]int{{1, 1, 1}, {1, 1, 9}, {2, 1, 1}, {3, 5, 7}, {11, 11, 11}, {16, 3, 9}}

// TestPoisson3DMatchesReference: Poisson3D, now Stencil3D's assembly, is
// the matrix FromCOO built from its triplets, entry for entry.
func TestPoisson3DMatchesReference(t *testing.T) {
	for _, d := range append(stencilDims, [3]int{0, 4, 4}, [3]int{4, 1, 6}) {
		got, want := Poisson3D(d[0], d[1], d[2]), poisson3DReference(d[0], d[1], d[2])
		if got.Rows != want.Rows || got.Cols != want.Cols ||
			!reflect.DeepEqual(got.RowPtr, want.RowPtr) || !reflect.DeepEqual(got.ColIdx, want.ColIdx) ||
			!reflect.DeepEqual(got.Val, want.Val) {
			t.Errorf("%v: Poisson3D differs from the FromCOO assembly", d)
		}
	}
}

// stencilInputs are the oracle's vectors: normal values over many
// magnitudes, one sprinkled with both zeros and subnormals, the zero
// vectors of either sign and one of zeros of random sign (a row whose
// sum from +0 ends at −0 only if it starts from +0 shows there).
func stencilInputs(n int, rng *rand.Rand) [][]float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308}
	plain, special, zero, negZero, signed := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range plain {
		plain[i] = rng.NormFloat64()
		special[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		if rng.Intn(3) == 0 {
			special[i] = specials[rng.Intn(len(specials))]
		}
		negZero[i] = math.Copysign(0, -1)
		signed[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
	}
	return [][]float64{plain, special, zero, negZero, signed}
}

// garbage fills y with values a kernel must overwrite.
func garbage(y []float64) {
	for i := range y {
		y[i] = float64(i) - 0.5
	}
}

// TestStencilMatchesCSR is Stencil3D's oracle: on finite inputs MulVec
// and Residual equal the assembled matrix's bit for bit, signed zeros
// and overflow to ±Inf included, Residual with r aliasing b too, and on
// inputs holding NaN and ±Inf the two agree on which outputs are NaN,
// +Inf or −Inf and on every finite output.
func TestStencilMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, d := range stencilDims {
		g := NewStencil3D(d[0], d[1], d[2])
		a := g.Matrix()
		n := a.Rows
		want, got := make([]float64, n), make([]float64, n)
		inputs := stencilInputs(n, rng)
		for xi, x := range inputs {
			garbage(got)
			a.MulVec(x, want)
			g.MulVec(x, got)
			assertBitwise(t, d, "MulVec", xi, got, want)
			for bi, b := range inputs {
				garbage(got)
				a.Residual(b, x, want)
				g.Residual(b, x, got)
				assertBitwise(t, d, "Residual", xi*len(inputs)+bi, got, want)
				// r may be b, as for the CSR: each row reads its b
				// before it writes its r.
				copy(got, b)
				g.Residual(got, x, got)
				assertBitwise(t, d, "Residual into b", xi*len(inputs)+bi, got, want)
			}
		}
		nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for trial := 0; trial < 8; trial++ {
			x := append([]float64(nil), inputs[trial%2]...)
			b := append([]float64(nil), inputs[(trial+1)%2]...)
			for k := 0; k <= trial%3; k++ {
				x[rng.Intn(n)] = nonFinite[rng.Intn(len(nonFinite))]
			}
			if trial >= 4 {
				b[rng.Intn(n)] = nonFinite[rng.Intn(len(nonFinite))]
			}
			garbage(got)
			a.MulVec(x, want)
			g.MulVec(x, got)
			assertSameClass(t, d, "MulVec", trial, got, want)
			garbage(got)
			a.Residual(b, x, want)
			g.Residual(b, x, got)
			assertSameClass(t, d, "Residual", trial, got, want)
		}
	}
}

func assertBitwise(t *testing.T, d [3]int, op string, input int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%v %s input %d: row %d = %v (%#x), CSR %v (%#x)", d, op, input,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// assertSameClass checks that got and want are NaN in the same rows and
// bitwise equal in every other row (±Inf included).
func assertSameClass(t *testing.T, d [3]int, op string, trial int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) != math.IsNaN(want[i]) ||
			!math.IsNaN(want[i]) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%v %s non-finite trial %d: row %d = %v, CSR %v", d, op, trial, i, got[i], want[i])
		}
	}
}

func TestStencilDimensionPanic(t *testing.T) {
	g := NewStencil3D(2, 3, 4)
	for name, call := range map[string]func(){
		"MulVec":   func() { g.MulVec(make([]float64, 24), make([]float64, 23)) },
		"Residual": func() { g.Residual(make([]float64, 23), make([]float64, 24), make([]float64, 24)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short operand did not panic", name)
				}
			}()
			call()
		}()
	}
}
