package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// gridPoints returns the vertices of an nx x ny 2-D lattice, row by row.
func gridPoints(nx, ny int) []Point {
	pts := make([]Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			pts = append(pts, Point{float64(i), float64(j), 0})
		}
	}
	return pts
}

// latticeCut counts the lattice edges of gridPoints(nx, ny) whose
// endpoints carry different labels.
func latticeCut(nx, ny int, part []int) int {
	cut := 0
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := j*nx + i
			if i+1 < nx && part[v] != part[v+1] {
				cut++
			}
			if j+1 < ny && part[v] != part[v+nx] {
				cut++
			}
		}
	}
	return cut
}

func TestRCBBalancedAndComplete(t *testing.T) {
	pts := gridPoints(16, 16)
	for _, parts := range []int{1, 2, 3, 4, 7, 16} {
		part := RCB(pts, parts)
		sizes := PartSizes(part, parts)
		minSz, maxSz := len(pts), 0
		for _, s := range sizes {
			if s < minSz {
				minSz = s
			}
			if s > maxSz {
				maxSz = s
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("parts=%d imbalanced sizes %v", parts, sizes)
		}
	}
}

func TestRCBLocality(t *testing.T) {
	// RCB on a lattice should cut far fewer edges than a random assignment.
	pts := gridPoints(32, 32)
	part := RCB(pts, 8)
	rcbCut := latticeCut(32, 32, part)
	rng := rand.New(rand.NewSource(1))
	randPart := make([]int, len(pts))
	for i := range randPart {
		randPart[i] = rng.Intn(8)
	}
	randCut := latticeCut(32, 32, randPart)
	if rcbCut*3 > randCut {
		t.Errorf("RCB cut %d not clearly better than random cut %d", rcbCut, randCut)
	}
}

func TestRCBDeterministic(t *testing.T) {
	pts := gridPoints(10, 10)
	a := RCB(pts, 4)
	b := RCB(pts, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RCB not deterministic at %d", i)
		}
	}
}

func TestRCBPanicsOnBadParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RCB(parts=0) did not panic")
		}
	}()
	RCB([]Point{{0, 0, 0}}, 0)
}

func TestImbalancePerfect(t *testing.T) {
	if imb := Imbalance([]int{0, 0, 1, 1}, 2); imb != 1.0 {
		t.Errorf("imbalance = %v, want 1.0", imb)
	}
	if imb := Imbalance([]int{0, 0, 0, 1}, 2); imb != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", imb)
	}
}

// Property: RCB assigns every point a valid part and never loses points.
func TestRCBValidProperty(t *testing.T) {
	f := func(seed int64, n uint8, parts uint8) bool {
		np := int(n)%200 + 1
		k := int(parts)%np + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, np)
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		part := RCB(pts, k)
		total := 0
		for _, s := range PartSizes(part, k) {
			total += s
		}
		return total == np
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Imbalance returns max part size over mean part size (1.0 = perfect).
func Imbalance(part []int, parts int) float64 {
	sizes := PartSizes(part, parts)
	maxSz := 0
	for _, s := range sizes {
		if s > maxSz {
			maxSz = s
		}
	}
	mean := float64(len(part)) / float64(parts)
	if mean == 0 {
		return 1
	}
	return float64(maxSz) / mean
}

// PartSizes returns the number of vertices in each part.
func PartSizes(part []int, parts int) []int {
	sizes := make([]int, parts)
	for _, p := range part {
		sizes[p]++
	}
	return sizes
}
