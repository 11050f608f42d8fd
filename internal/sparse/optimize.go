package sparse

// ---- Identity-block interpolation reordering (Section IV-B, bullet 3) ----
//
// During AMG interpolation and restriction, coarse points map directly to
// themselves: their rows of P are a single 1.0. Splitting those rows out
// turns that part of the SpMV into a plain copy, saving flops and memory
// bandwidth [48].

// IdentitySplit is an interpolation operator with its identity rows
// factored out.
type IdentitySplit struct {
	Rows, Cols int
	IdRows     []int32 // rows that are exactly [1.0] at IdCols
	IdCols     []int32
	Rest       *CSR // remaining rows (identity rows left empty)
}

// AnalyzeIdentity splits P into identity rows and the rest.
func AnalyzeIdentity(p *CSR) *IdentitySplit {
	s := &IdentitySplit{Rows: p.Rows, Cols: p.Cols}
	restPtr := make([]int, p.Rows+1)
	var restCols []int
	var restVals []float64
	for i := 0; i < p.Rows; i++ {
		lo, hi := p.RowPtr[i], p.RowPtr[i+1]
		if hi-lo == 1 && p.Val[lo] == 1.0 {
			s.IdRows = append(s.IdRows, int32(i))
			s.IdCols = append(s.IdCols, int32(p.ColIdx[lo]))
		} else {
			restCols = append(restCols, p.ColIdx[lo:hi]...)
			restVals = append(restVals, p.Val[lo:hi]...)
		}
		restPtr[i+1] = len(restCols)
	}
	s.Rest = &CSR{Rows: p.Rows, Cols: p.Cols, RowPtr: restPtr, ColIdx: restCols, Val: restVals}
	return s
}

// MulVec computes y = P x using the split form: direct copies for the
// identity block, a standard SpMV for the rest.
func (s *IdentitySplit) MulVec(x, y []float64) {
	s.Rest.MulVec(x, y)
	for k, r := range s.IdRows {
		y[r] = x[s.IdCols[k]]
	}
}

// Work returns the roofline cost of the split SpMV: the identity block
// moves 16 bytes per row with no flops, the rest is a normal SpMV.
func (s *IdentitySplit) Work() (flops, bytes float64) {
	f, b := s.Rest.MulVecWork()
	return f, b + 16*float64(len(s.IdRows))
}
