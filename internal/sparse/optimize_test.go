package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// interpolationMatrix builds a typical AMG P: coarse points are identity
// rows, fine points interpolate from two coarse neighbours.
func interpolationMatrix(fine int) *CSR {
	var ri, ci []int
	var v []float64
	coarse := (fine + 1) / 2
	for i := 0; i < fine; i++ {
		if i%2 == 0 {
			ri = append(ri, i)
			ci = append(ci, i/2)
			v = append(v, 1)
		} else {
			ri = append(ri, i)
			ci = append(ci, i/2)
			v = append(v, 0.5)
			if i/2+1 < coarse {
				ri = append(ri, i)
				ci = append(ci, i/2+1)
				v = append(v, 0.5)
			}
		}
	}
	return FromCOO(fine, coarse, ri, ci, v)
}

func TestIdentitySplitMatchesFullSpMV(t *testing.T) {
	p := interpolationMatrix(11)
	s := AnalyzeIdentity(p)
	if len(s.IdRows) != 6 {
		t.Errorf("identity rows = %d, want 6", len(s.IdRows))
	}
	x := make([]float64, p.Cols)
	for i := range x {
		x[i] = float64(i + 1)
	}
	y1 := make([]float64, p.Rows)
	y2 := make([]float64, p.Rows)
	p.MulVec(x, y1)
	s.MulVec(x, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("split SpMV differs at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestIdentitySplitSavesWork(t *testing.T) {
	p := interpolationMatrix(101)
	s := AnalyzeIdentity(p)
	fFull, bFull := p.MulVecWork()
	fSplit, bSplit := s.Work()
	if !(fSplit < fFull) {
		t.Errorf("split flops %v not below full %v", fSplit, fFull)
	}
	if !(bSplit < bFull) {
		t.Errorf("split bytes %v not below full %v", bSplit, bFull)
	}
}

func TestIdentitySplitNoIdentityRows(t *testing.T) {
	a := randomCSR(6, 6, 0.5, 11)
	for k := range a.Val {
		a.Val[k] = 2.5 // no 1.0 single-entry rows
	}
	s := AnalyzeIdentity(a)
	x := make([]float64, 6)
	for i := range x {
		x[i] = float64(i)
	}
	y1 := make([]float64, 6)
	y2 := make([]float64, 6)
	a.MulVec(x, y1)
	s.MulVec(x, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("split without identity rows wrong")
		}
	}
}

func TestIdentitySplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		size := int(seed % 40)
		if size < 0 {
			size = -size
		}
		p := interpolationMatrix(size + 2)
		s := AnalyzeIdentity(p)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, p.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, p.Rows)
		y2 := make([]float64, p.Rows)
		p.MulVec(x, y1)
		s.MulVec(x, y2)
		for i := range y1 {
			if y1[i] != y2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
