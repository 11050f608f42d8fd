package sparse

import "fmt"

// Operator is a square matrix that applies itself: y = A x and
// r = b − A x, with len(x), len(y), len(b) and len(r) all its order. r
// may be b (each row reads its b before it writes its r); neither y nor
// r may share storage with x.
// Matrix returns A assembled, for what needs its entries (coarsening,
// row-wise smoothers). A CSR is its own matrix; a Stencil3D's products
// equal its Matrix's bit for bit.
type Operator interface {
	MulVec(x, y []float64)
	Residual(b, x, r []float64)
	Matrix() *CSR
}

// Matrix returns a itself: a CSR is already assembled.
func (a *CSR) Matrix() *CSR { return a }

// Stencil3D is the 7-point Laplacian on an nx × ny × nz grid, applied
// without assembling it. Row (i, j, k) = (k·ny + j)·nx + i holds 6 on the
// diagonal and −1 for each grid neighbour; Matrix assembles it (Poisson3D
// is that assembly). MulVec and Residual sum each row's terms in the CSR
// row's column order — k−1, j−1, i−1, centre, i+1, j+1, k+1 — from +0, as
// CSR.MulVec does, so on finite inputs they equal the assembled matrix's
// bit for bit. A Stencil3D is read-only once made; many goroutines may
// apply one.
type Stencil3D struct {
	nx, ny, nz int
	// zero is one grid line of +0, read in place of a neighbour line that
	// lies outside the grid. Subtracting +0 leaves any sum as it was, bit
	// for bit, so every line runs the same loop and a boundary row's sum
	// equals its CSR row's, which stores no term for the missing
	// neighbour.
	zero []float64
}

// NewStencil3D returns the 7-point Laplacian on an nx × ny × nz grid.
func NewStencil3D(nx, ny, nz int) *Stencil3D {
	if nx < 0 || ny < 0 || nz < 0 {
		panic(fmt.Sprintf("sparse: Stencil3D dims %dx%dx%d", nx, ny, nz))
	}
	return &Stencil3D{nx: nx, ny: ny, nz: nz, zero: make([]float64, nx)}
}

// Rows returns the operator's order, nx·ny·nz.
func (g *Stencil3D) Rows() int { return g.nx * g.ny * g.nz }

// Matrix assembles the operator in CSR form, each row's columns
// ascending.
func (g *Stencil3D) Matrix() *CSR {
	nx, ny, nz := g.nx, g.ny, g.nz
	n := nx * ny * nz
	sj, sk := nx, nx*ny
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, 7*n)
	val := make([]float64, 0, 7*n)
	add := func(c int, v float64) {
		colIdx = append(colIdx, c)
		val = append(val, v)
	}
	r := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if k > 0 {
					add(r-sk, -1)
				}
				if j > 0 {
					add(r-sj, -1)
				}
				if i > 0 {
					add(r-1, -1)
				}
				add(r, 6)
				if i < nx-1 {
					add(r+1, -1)
				}
				if j < ny-1 {
					add(r+sj, -1)
				}
				if k < nz-1 {
					add(r+sk, -1)
				}
				r++
				rowPtr[r] = len(val)
			}
		}
	}
	return &CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// MulVec computes y = A x, each row summed as the assembled matrix's
// MulVec sums it.
//
//perf:hotpath
func (g *Stencil3D) MulVec(x, y []float64) {
	if n := g.Rows(); len(x) != n || len(y) != n {
		g.mulVecDimsPanic(len(x), len(y))
	}
	g.apply(nil, x, y)
}

// Residual computes r = b − A x in one pass, each row's A x summed as
// MulVec sums it.
//
//perf:hotpath
func (g *Stencil3D) Residual(b, x, r []float64) {
	if n := g.Rows(); len(x) != n || len(r) != n || len(b) != n {
		g.residualDimsPanic(len(b), len(x), len(r))
	}
	g.apply(b, x, r)
}

// mulVecDimsPanic reports MulVec operands whose lengths do not match the
// grid, off the //perf:hotpath kernel as CSR's is.
func (g *Stencil3D) mulVecDimsPanic(nx, ny int) {
	panic(fmt.Sprintf("sparse: Stencil3D %dx%dx%d MulVec with |x|=%d |y|=%d", g.nx, g.ny, g.nz, nx, ny))
}

// residualDimsPanic is mulVecDimsPanic for Residual.
func (g *Stencil3D) residualDimsPanic(nb, nx, nr int) {
	panic(fmt.Sprintf("sparse: Stencil3D %dx%dx%d Residual with |b|=%d |x|=%d |r|=%d", g.nx, g.ny, g.nz, nb, nx, nr))
}

// apply sets y = A x, or y = b − A x when b is non-nil, one grid line at
// a time.
//
//perf:hotpath
func (g *Stencil3D) apply(b, x, y []float64) {
	nx, ny, nz := g.nx, g.ny, g.nz
	if nx == 0 {
		return
	}
	sj, sk := nx, nx*ny
	c := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			km, jm, jp, kp := g.zero, g.zero, g.zero, g.zero
			if k > 0 {
				km = x[c-sk : c-sk+nx]
			}
			if j > 0 {
				jm = x[c-sj : c-sj+nx]
			}
			if j < ny-1 {
				jp = x[c+sj : c+sj+nx]
			}
			if k < nz-1 {
				kp = x[c+sk : c+sk+nx]
			}
			if b == nil {
				line(km, jm, x[c:c+nx], jp, kp, y[c:c+nx])
			} else {
				lineResidual(km, jm, x[c:c+nx], jp, kp, b[c:c+nx], y[c:c+nx])
			}
			c += nx
		}
	}
}

// line sets y to the rows of one grid line: xc is the line itself, km,
// jm, jp and kp its neighbour lines at k−1, j−1, j+1 and k+1, all of
// len(xc) values. The interior rows run with no branches and no index
// arrays; the line's two end rows lack one i-neighbour each.
//
//perf:hotpath
func line(km, jm, xc, jp, kp, y []float64) {
	n := len(xc)
	km, jm, jp, kp, y = km[:n], jm[:n], jp[:n], kp[:n], y[:n]
	if n == 1 {
		y[0] = single(km[0], jm[0], xc[0], jp[0], kp[0])
		return
	}
	y[0] = first(km[0], jm[0], xc[0], xc[1], jp[0], kp[0])
	// The interior rows 1 … n−2, each operand resliced to them so that
	// the loop indexes every one with the same i.
	lo, mid, hi := xc[:n-2], xc[1:n-1], xc[2:]
	ikm, ijm, ijp, ikp, iy := km[1:n-1], jm[1:n-1], jp[1:n-1], kp[1:n-1], y[1:n-1]
	for i := range mid {
		iy[i] = row(ikm[i], ijm[i], lo[i], mid[i], hi[i], ijp[i], ikp[i])
	}
	y[n-1] = last(km[n-1], jm[n-1], xc[n-2], xc[n-1], jp[n-1], kp[n-1])
}

// lineResidual is line with y set to b less each row. Each row reads its
// b before it writes its y, so y may be b.
//
//perf:hotpath
func lineResidual(km, jm, xc, jp, kp, b, y []float64) {
	n := len(xc)
	km, jm, jp, kp, b, y = km[:n], jm[:n], jp[:n], kp[:n], b[:n], y[:n]
	if n == 1 {
		y[0] = b[0] - single(km[0], jm[0], xc[0], jp[0], kp[0])
		return
	}
	y[0] = b[0] - first(km[0], jm[0], xc[0], xc[1], jp[0], kp[0])
	lo, mid, hi := xc[:n-2], xc[1:n-1], xc[2:]
	ikm, ijm, ijp, ikp, ib, iy := km[1:n-1], jm[1:n-1], jp[1:n-1], kp[1:n-1], b[1:n-1], y[1:n-1]
	for i := range mid {
		iy[i] = ib[i] - row(ikm[i], ijm[i], lo[i], mid[i], hi[i], ijp[i], ikp[i])
	}
	y[n-1] = b[n-1] - last(km[n-1], jm[n-1], xc[n-2], xc[n-1], jp[n-1], kp[n-1])
}

// row, first, last and single sum one row's terms in CSR column order
// from +0: an interior row, a line's first and last rows (no i−1 and no
// i+1 neighbour) and the row of a line one row long.
func row(km, jm, lo, c, hi, jp, kp float64) float64 {
	s := 0 - km
	s -= jm
	s -= lo
	s += 6 * c
	s -= hi
	s -= jp
	return s - kp
}

func first(km, jm, c, hi, jp, kp float64) float64 {
	s := 0 - km
	s -= jm
	s += 6 * c
	s -= hi
	s -= jp
	return s - kp
}

func last(km, jm, lo, c, jp, kp float64) float64 {
	s := 0 - km
	s -= jm
	s -= lo
	s += 6 * c
	s -= jp
	return s - kp
}

func single(km, jm, c, jp, kp float64) float64 {
	s := 0 - km
	s -= jm
	s += 6 * c
	s -= jp
	return s - kp
}
