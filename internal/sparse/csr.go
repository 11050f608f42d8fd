package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed-sparse-row format. Row i's entries
// are ColIdx/Val[RowPtr[i]:RowPtr[i+1]], with column indices sorted
// ascending within each row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Validate checks the structural invariants of the format.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d != Rows+1 (%d)", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Val) || len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent RowPtr/ColIdx/Val lengths")
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			if c < 0 || c >= a.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
			prev = c
		}
	}
	return nil
}

// FromCOO builds a CSR from triplet form, summing duplicate entries.
func FromCOO(rows, cols int, ri, ci []int, v []float64) *CSR {
	if len(ri) != len(ci) || len(ci) != len(v) {
		panic("sparse: FromCOO triplet arrays differ in length")
	}
	type trip struct {
		r, c int
		v    float64
	}
	ts := make([]trip, len(ri))
	for k := range ri {
		if ri[k] < 0 || ri[k] >= rows || ci[k] < 0 || ci[k] >= cols {
			panic(fmt.Sprintf("sparse: FromCOO entry (%d,%d) out of %dx%d", ri[k], ci[k], rows, cols))
		}
		ts[k] = trip{ri[k], ci[k], v[k]}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].r != ts[b].r {
			return ts[a].r < ts[b].r
		}
		return ts[a].c < ts[b].c
	})
	rowPtr := make([]int, rows+1)
	colIdx := make([]int, 0, len(ts))
	val := make([]float64, 0, len(ts))
	for k := 0; k < len(ts); {
		r, c := ts[k].r, ts[k].c
		sum := 0.0
		for k < len(ts) && ts[k].r == r && ts[k].c == c {
			sum += ts[k].v
			k++
		}
		colIdx = append(colIdx, c)
		val = append(val, sum)
		rowPtr[r+1]++
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// Eye returns the n x n identity.
func Eye(n int) *CSR {
	rp := make([]int, n+1)
	ci := make([]int, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		rp[i+1] = i + 1
		ci[i] = i
		v[i] = 1
	}
	return &CSR{Rows: n, Cols: n, RowPtr: rp, ColIdx: ci, Val: v}
}

// MulVec computes y = A x. len(x) must be Cols, len(y) Rows. Each row
// sums its entries in column order. One running index walks ColIdx and
// Val across the rows, so a row costs no reslice of either; its inner
// loop checks three bounds where a resliced row checks one, and on the
// pe-sweep benchmark it is still the faster of the two.
//
//perf:hotpath
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		a.mulVecDimsPanic(len(x), len(y))
	}
	cols, vals := a.ColIdx, a.Val
	k := a.RowPtr[0]
	for i, hi := range a.RowPtr[1 : len(y)+1] {
		s := 0.0
		for ; k < hi; k++ {
			s += vals[k] * x[cols[k]]
		}
		y[i] = s
	}
}

// Residual computes r = b - A x in one pass, each row's A x summed as
// MulVec sums it. len(x) must be Cols, len(b) and len(r) Rows.
//
//perf:hotpath
func (a *CSR) Residual(b, x, r []float64) {
	if len(x) != a.Cols || len(r) != a.Rows || len(b) != a.Rows {
		a.residualDimsPanic(len(b), len(x), len(r))
	}
	cols, vals := a.ColIdx, a.Val
	k := a.RowPtr[0]
	for i, hi := range a.RowPtr[1 : len(r)+1] {
		s := 0.0
		for ; k < hi; k++ {
			s += vals[k] * x[cols[k]]
		}
		r[i] = b[i] - s
	}
}

// mulVecDimsPanic reports MulVec operands whose lengths do not match the
// matrix. Formatting the message boxes its operands; here that stays off
// the //perf:hotpath kernel, where only a failing call would pay it.
func (a *CSR) mulVecDimsPanic(nx, ny int) {
	panic(fmt.Sprintf("sparse: MulVec dims %dx%d with |x|=%d |y|=%d", a.Rows, a.Cols, nx, ny))
}

// residualDimsPanic is mulVecDimsPanic for Residual.
func (a *CSR) residualDimsPanic(nb, nx, nr int) {
	panic(fmt.Sprintf("sparse: Residual dims %dx%d with |b|=%d |x|=%d |r|=%d", a.Rows, a.Cols, nb, nx, nr))
}

// MulVecWork returns the roofline work of one SpMV: 2 flops per nnz and
// the streamed bytes (vals 8B + cols 8B + x gather 8B per nnz, y 8B/row).
func (a *CSR) MulVecWork() (flops, bytes float64) {
	nnz := float64(a.NNZ())
	return 2 * nnz, 24*nnz + 8*float64(a.Rows)
}

// Transpose returns A^T.
func (a *CSR) Transpose() *CSR {
	rp := make([]int, a.Cols+1)
	for _, c := range a.ColIdx {
		rp[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		rp[i+1] += rp[i]
	}
	ci := make([]int, a.NNZ())
	v := make([]float64, a.NNZ())
	fill := make([]int, a.Cols)
	copy(fill, rp[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			ci[fill[c]] = i
			v[fill[c]] = a.Val[k]
			fill[c]++
		}
	}
	return &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: rp, ColIdx: ci, Val: v}
}

// Diag extracts the main diagonal (zeros where absent).
func (a *CSR) Diag() []float64 {
	d := make([]float64, a.Rows)
	for i := 0; i < a.Rows && i < a.Cols; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				d[i] = a.Val[k]
				break
			}
		}
	}
	return d
}

// At returns A[i,j] (zero if not stored). Linear scan within the row.
func (a *CSR) At(i, j int) float64 {
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		if a.ColIdx[k] == j {
			return a.Val[k]
		}
		if a.ColIdx[k] > j {
			break
		}
	}
	return 0
}

// Add returns alpha*A + beta*B (same dimensions required).
func Add(a, b *CSR, alpha, beta float64) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add dimension mismatch")
	}
	rp := make([]int, a.Rows+1)
	var ci []int
	var v []float64
	for i := 0; i < a.Rows; i++ {
		ka, kb := a.RowPtr[i], b.RowPtr[i]
		ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && a.ColIdx[ka] < b.ColIdx[kb]):
				ci = append(ci, a.ColIdx[ka])
				v = append(v, alpha*a.Val[ka])
				ka++
			case ka >= ea || b.ColIdx[kb] < a.ColIdx[ka]:
				ci = append(ci, b.ColIdx[kb])
				v = append(v, beta*b.Val[kb])
				kb++
			default:
				ci = append(ci, a.ColIdx[ka])
				v = append(v, alpha*a.Val[ka]+beta*b.Val[kb])
				ka++
				kb++
			}
		}
		rp[i+1] = len(ci)
	}
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: rp, ColIdx: ci, Val: v}
}

// Scale multiplies all values in place and returns the receiver.
func (a *CSR) Scale(s float64) *CSR {
	for k := range a.Val {
		a.Val[k] *= s
	}
	return a
}

// Clone deep-copies the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{Rows: a.Rows, Cols: a.Cols,
		RowPtr: make([]int, len(a.RowPtr)),
		ColIdx: make([]int, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val))}
	copy(b.RowPtr, a.RowPtr)
	copy(b.ColIdx, a.ColIdx)
	copy(b.Val, a.Val)
	return b
}

// EqualWithin reports whether A and B agree entry-wise within tol.
func (a *CSR) EqualWithin(b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ka, kb := a.RowPtr[i], b.RowPtr[i]
		ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
		for ka < ea || kb < eb {
			var ca, cb int = math.MaxInt, math.MaxInt
			var va, vb float64
			if ka < ea {
				ca, va = a.ColIdx[ka], a.Val[ka]
			}
			if kb < eb {
				cb, vb = b.ColIdx[kb], b.Val[kb]
			}
			switch {
			case ca < cb:
				if math.Abs(va) > tol {
					return false
				}
				ka++
			case cb < ca:
				if math.Abs(vb) > tol {
					return false
				}
				kb++
			default:
				if math.Abs(va-vb) > tol {
					return false
				}
				ka++
				kb++
			}
		}
	}
	return true
}

// Dense expands the matrix for debugging and tests.
func (a *CSR) Dense() [][]float64 {
	out := make([][]float64, a.Rows)
	for i := range out {
		out[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			out[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return out
}

// Poisson1D builds the tridiagonal [-1 2 -1] Laplacian of size n.
func Poisson1D(n int) *CSR {
	var ri, ci []int
	var v []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			ri = append(ri, i)
			ci = append(ci, i-1)
			v = append(v, -1)
		}
		ri = append(ri, i)
		ci = append(ci, i)
		v = append(v, 2)
		if i < n-1 {
			ri = append(ri, i)
			ci = append(ci, i+1)
			v = append(v, -1)
		}
	}
	return FromCOO(n, n, ri, ci, v)
}

// Poisson2D builds the standard 5-point Laplacian on an nx x ny grid.
func Poisson2D(nx, ny int) *CSR {
	n := nx * ny
	var ri, ci []int
	var v []float64
	id := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := id(i, j)
			add := func(c int, x float64) { ri = append(ri, r); ci = append(ci, c); v = append(v, x) }
			if j > 0 {
				add(id(i, j-1), -1)
			}
			if i > 0 {
				add(id(i-1, j), -1)
			}
			add(r, 4)
			if i < nx-1 {
				add(id(i+1, j), -1)
			}
			if j < ny-1 {
				add(id(i, j+1), -1)
			}
		}
	}
	return FromCOO(n, n, ri, ci, v)
}

// Poisson3D builds the 7-point Laplacian on an nx x ny x nz grid.
func Poisson3D(nx, ny, nz int) *CSR {
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
