package sparse

import (
	"fmt"
	"math"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

func distCfg() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster()}
}

func TestOwnerOfConsistent(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {100, 7}, {5, 5}, {64, 8}} {
		for g := 0; g < tc.n; g++ {
			r := ownerOf(tc.n, tc.p, g)
			lo, hi := rowRange(tc.n, tc.p, r)
			if g < lo || g >= hi {
				t.Fatalf("ownerOf(%d,%d,%d) = %d but range [%d,%d)", tc.n, tc.p, g, r, lo, hi)
			}
		}
	}
}

func TestDistMulVecMatchesSerial(t *testing.T) {
	global := Poisson2D(8, 8)
	n := global.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, n)
	global.MulVec(x, want)

	for _, p := range []int{1, 2, 3, 5, 8} {
		_, err := mpi.Run(p, distCfg(), func(c *mpi.Comm) error {
			d := NewDistFromGlobal(c, global, 100)
			lo, hi := d.RowLo, d.RowHi
			y := make([]float64, hi-lo)
			d.MulVec(x[lo:hi], y)
			for i := range y {
				if math.Abs(y[i]-want[lo+i]) > 1e-12 {
					return fmt.Errorf("p=%d rank %d: y[%d]=%v, want %v", p, c.Rank(), i, y[i], want[lo+i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistRepeatedMulVec(t *testing.T) {
	// Two consecutive products (power iteration step) must stay exact:
	// exchange lists must be reusable.
	global := Poisson1D(20)
	x := make([]float64, 20)
	for i := range x {
		x[i] = float64(i%3) + 1
	}
	y1 := make([]float64, 20)
	y2 := make([]float64, 20)
	global.MulVec(x, y1)
	global.MulVec(y1, y2)

	_, err := mpi.Run(4, distCfg(), func(c *mpi.Comm) error {
		d := NewDistFromGlobal(c, global, 7)
		lo, hi := d.RowLo, d.RowHi
		a := make([]float64, hi-lo)
		b := make([]float64, hi-lo)
		d.MulVec(x[lo:hi], a)
		d.MulVec(a, b)
		for i := range b {
			if math.Abs(b[i]-y2[lo+i]) > 1e-12 {
				return fmt.Errorf("second product wrong at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistDotAndNorm(t *testing.T) {
	global := Poisson1D(12)
	x := make([]float64, 12)
	wantDot := 0.0
	for i := range x {
		x[i] = float64(i)
		wantDot += x[i] * x[i]
	}
	_, err := mpi.Run(3, distCfg(), func(c *mpi.Comm) error {
		d := NewDistFromGlobal(c, global, 5)
		mine := x[d.RowLo:d.RowHi]
		if got := d.Dot(mine, mine); math.Abs(got-wantDot) > 1e-12 {
			return fmt.Errorf("dot = %v, want %v", got, wantDot)
		}
		if got := d.Norm2(mine); math.Abs(got-math.Sqrt(wantDot)) > 1e-12 {
			return fmt.Errorf("norm = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistHaloStructure(t *testing.T) {
	// 1-D Poisson split over 4 ranks: interior ranks have halo 2 and two
	// neighbours; end ranks one of each.
	global := Poisson1D(16)
	_, err := mpi.Run(4, distCfg(), func(c *mpi.Comm) error {
		d := NewDistFromGlobal(c, global, 9)
		wantHalo, wantNbrs := 2, 2
		if c.Rank() == 0 || c.Rank() == 3 {
			wantHalo, wantNbrs = 1, 1
		}
		if d.HaloSize() != wantHalo {
			return fmt.Errorf("rank %d halo %d, want %d", c.Rank(), d.HaloSize(), wantHalo)
		}
		if len(d.Neighbours()) != wantNbrs {
			return fmt.Errorf("rank %d nbrs %v", c.Rank(), d.Neighbours())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistWorkScaleChargesMoreTime(t *testing.T) {
	global := Poisson2D(10, 10)
	x := make([]float64, 100)
	elapsed := func(scale float64) float64 {
		st, err := mpi.Run(2, distCfg(), func(c *mpi.Comm) error {
			d := NewDistFromGlobal(c, global, 3)
			d.WorkScale = scale
			y := make([]float64, d.OwnedRows())
			d.MulVec(x[d.RowLo:d.RowHi], y)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.AvgCompute()
	}
	if !(elapsed(100) > elapsed(1)) {
		t.Error("WorkScale did not increase charged compute time")
	}
}

func TestDistRequiresSquare(t *testing.T) {
	_, err := mpi.Run(1, distCfg(), func(c *mpi.Comm) error {
		defer func() { recover() }()
		NewDistFromGlobal(c, randomCSR(3, 4, 0.5, 1), 0)
		return fmt.Errorf("non-square accepted")
	})
	if err != nil {
		t.Fatal(err)
	}
}
