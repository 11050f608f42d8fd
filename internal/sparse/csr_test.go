package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR builds a random sparse matrix with about density*rows*cols
// entries, deterministic per seed.
func randomCSR(rows, cols int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var ri, ci []int
	var v []float64
	n := int(density * float64(rows) * float64(cols))
	for k := 0; k < n; k++ {
		ri = append(ri, rng.Intn(rows))
		ci = append(ci, rng.Intn(cols))
		v = append(v, rng.NormFloat64())
	}
	return FromCOO(rows, cols, ri, ci, v)
}

func TestFromCOOSumsDuplicates(t *testing.T) {
	a := FromCOO(2, 2, []int{0, 0, 1}, []int{1, 1, 0}, []float64{2, 3, 4})
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", a.NNZ())
	}
	if a.At(0, 1) != 5 || a.At(1, 0) != 4 || a.At(0, 0) != 0 {
		t.Errorf("values wrong: %v", a.Dense())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCOORejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range COO entry accepted")
		}
	}()
	FromCOO(2, 2, []int{5}, []int{0}, []float64{1})
}

func TestValidateCatchesUnsortedColumns(t *testing.T) {
	a := &CSR{Rows: 1, Cols: 3, RowPtr: []int{0, 2}, ColIdx: []int{2, 0}, Val: []float64{1, 2}}
	if err := a.Validate(); err == nil {
		t.Fatal("unsorted columns not caught")
	}
}

func TestEye(t *testing.T) {
	i3 := Eye(3)
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	i3.MulVec(x, y)
	for k := range x {
		if y[k] != x[k] {
			t.Fatalf("identity MulVec got %v", y)
		}
	}
}

func TestMulVecKnown(t *testing.T) {
	// [[1 2][0 3]] * [4 5] = [14, 15]
	a := FromCOO(2, 2, []int{0, 0, 1}, []int{0, 1, 1}, []float64{1, 2, 3})
	y := make([]float64, 2)
	a.MulVec([]float64{4, 5}, y)
	if y[0] != 14 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [14 15]", y)
	}
}

// referenceMulVec is the RowPtr loop MulVec replaced: every entry is
// addressed through RowPtr, ColIdx and Val by its global index k.
func referenceMulVec(a *CSR, x, y []float64) {
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = s
	}
}

// TestMulVecMatchesReference is MulVec's oracle: on random matrices,
// sparse enough to leave rows empty, a zero-row and a zero-column one,
// with NaN and infinities among the inputs, y equals the RowPtr loop's
// bit for bit (NaN positions as both NaN).
func TestMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mats := []*CSR{FromCOO(0, 4, nil, nil, nil), FromCOO(3, 0, nil, nil, nil), Eye(5)}
	for seed := int64(1); seed <= 20; seed++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		mats = append(mats, randomCSR(rows, cols, []float64{0.01, 0.05, 0.3}[seed%3], seed))
	}
	emptyRows := 0
	for mi, a := range mats {
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i] == a.RowPtr[i+1] {
				emptyRows++
			}
		}
		x := make([]float64, a.Cols)
		for j := range x {
			x[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			switch rng.Intn(40) {
			case 0:
				x[j] = math.NaN()
			case 1:
				x[j] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		got, want := make([]float64, a.Rows), make([]float64, a.Rows)
		for i := range got {
			got[i], want[i] = rng.Float64(), rng.Float64() // MulVec must overwrite, not add
		}
		a.MulVec(x, got)
		referenceMulVec(a, x, want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("matrix %d (%dx%d, nnz %d): y[%d] = %v, reference %v", mi, a.Rows, a.Cols, a.NNZ(), i, got[i], want[i])
			}
		}
	}
	if emptyRows == 0 {
		t.Fatal("no matrix has an empty row")
	}
}

// TestResidualMatchesReference is Residual's oracle: on the matrices
// and inputs of TestMulVecMatchesReference (the same draws), with NaN,
// infinities, both zeros and subnormals in b as well, r equals MulVec
// followed by b[i] - y[i] bit for bit.
func TestResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mats := []*CSR{FromCOO(0, 4, nil, nil, nil), FromCOO(3, 0, nil, nil, nil), Eye(5)}
	for seed := int64(1); seed <= 20; seed++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		mats = append(mats, randomCSR(rows, cols, []float64{0.01, 0.05, 0.3}[seed%3], seed))
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324}
	for mi, a := range mats {
		x := make([]float64, a.Cols)
		for j := range x {
			x[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			switch rng.Intn(40) {
			case 0:
				x[j] = math.NaN()
			case 1:
				x[j] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		got, want := make([]float64, a.Rows), make([]float64, a.Rows)
		for i := range got {
			got[i], want[i] = rng.Float64(), rng.Float64() // Residual must overwrite, not add
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				b[i] = specials[rng.Intn(len(specials))]
			}
		}
		a.Residual(b, x, got)
		a.MulVec(x, want)
		for i := range want {
			want[i] = b[i] - want[i]
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("matrix %d (%dx%d, nnz %d): r[%d] = %v, reference %v", mi, a.Rows, a.Cols, a.NNZ(), i, got[i], want[i])
			}
		}
	}
}

func TestResidualDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	Eye(2).Residual(make([]float64, 3), make([]float64, 2), make([]float64, 2))
}

func TestMulVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	Eye(2).MulVec(make([]float64, 3), make([]float64, 2))
}

func TestTransposeInvolution(t *testing.T) {
	a := randomCSR(15, 9, 0.2, 7)
	att := a.Transpose().Transpose()
	if !a.EqualWithin(att, 0) {
		t.Error("transpose twice != original")
	}
	at := a.Transpose()
	if at.Rows != a.Cols || at.Cols != a.Rows {
		t.Errorf("transpose dims %dx%d", at.Rows, at.Cols)
	}
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	// (A^T)[j,i] == A[i,j] on a sample.
	if at.At(3, 7) != a.At(7, 3) {
		t.Error("transpose entry mismatch")
	}
}

func TestDiag(t *testing.T) {
	a := Poisson1D(4)
	d := a.Diag()
	for i, v := range d {
		if v != 2 {
			t.Fatalf("diag[%d] = %v, want 2", i, v)
		}
	}
}

func TestAdd(t *testing.T) {
	a := randomCSR(8, 8, 0.3, 1)
	b := randomCSR(8, 8, 0.3, 2)
	c := Add(a, b, 2, -1)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 2*a.At(i, j) - b.At(i, j)
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("Add wrong at (%d,%d): %v want %v", i, j, c.At(i, j), want)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleClone(t *testing.T) {
	a := Poisson1D(5)
	b := a.Clone().Scale(3)
	if a.At(0, 0) != 2 {
		t.Error("Scale mutated the original through Clone")
	}
	if b.At(0, 0) != 6 {
		t.Errorf("Scale(3) diag = %v", b.At(0, 0))
	}
}

func TestEqualWithin(t *testing.T) {
	a := Poisson2D(3, 3)
	b := a.Clone()
	if !a.EqualWithin(b, 0) {
		t.Error("clone not equal")
	}
	b.Val[0] += 1e-3
	if a.EqualWithin(b, 1e-6) {
		t.Error("perturbation not detected")
	}
	if !a.EqualWithin(b, 1e-2) {
		t.Error("tolerance not honoured")
	}
	// Structurally different but numerically equal-within-tol.
	c := FromCOO(2, 2, []int{0}, []int{0}, []float64{1e-9})
	d := FromCOO(2, 2, []int{1}, []int{1}, []float64{1e-9})
	if !c.EqualWithin(d, 1e-6) {
		t.Error("tiny structural differences should pass within tol")
	}
}

func TestPoissonProperties(t *testing.T) {
	// Row sums: interior rows sum to zero, boundary rows positive.
	for _, a := range []*CSR{Poisson1D(10), Poisson2D(4, 5), Poisson3D(3, 3, 3)} {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < a.Rows; i++ {
			sum := 0.0
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				sum += a.Val[k]
			}
			if sum < -1e-12 {
				t.Fatalf("row %d sum %v negative", i, sum)
			}
		}
		// Symmetry.
		if !a.EqualWithin(a.Transpose(), 1e-14) {
			t.Fatal("Poisson operator not symmetric")
		}
	}
}

func TestPoisson3DStencilCount(t *testing.T) {
	a := Poisson3D(3, 3, 3)
	center := 13 // (1,1,1)
	if got := a.RowPtr[center+1] - a.RowPtr[center]; got != 7 {
		t.Errorf("interior row has %d entries, want 7", got)
	}
}

func TestMulVecWorkPositive(t *testing.T) {
	f, b := Poisson2D(5, 5).MulVecWork()
	if f <= 0 || b <= 0 {
		t.Errorf("work = %v flops %v bytes", f, b)
	}
}

// Property: (A+A)x == 2*Ax for random matrices.
func TestAddLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomCSR(10, 10, 0.3, seed)
		two := Add(a, a, 1, 1)
		x := make([]float64, 10)
		rng := rand.New(rand.NewSource(seed + 1))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, 10)
		y2 := make([]float64, 10)
		two.MulVec(x, y1)
		a.MulVec(x, y2)
		for i := range y1 {
			if math.Abs(y1[i]-2*y2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: transpose preserves Frobenius norm.
func TestTransposeNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomCSR(12, 7, 0.25, seed)
		frob := func(m *CSR) float64 {
			s := 0.0
			for _, v := range m.Val {
				s += v * v
			}
			return s
		}
		return math.Abs(frob(a)-frob(a.Transpose())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
