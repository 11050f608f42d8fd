package coupler

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(n int, seed int64) []Point2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point2, n)
	for i := range pts {
		pts[i] = Point2{X: rng.Float64(), Y: rng.Float64(), Idx: i}
	}
	return pts
}

// kNearest is the tree's k-nearest search into a fresh buffer.
func kNearest(tree *KDTree, q Point2, k int) []neighbour {
	return tree.nearestInto(q, make([]neighbour, 0, k))
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 1)
	tree := BuildKDTree(pts)
	queries := randomPoints(50, 2)
	for _, q := range queries {
		for _, k := range []int{1, 4, 10} {
			got := kNearest(tree, q, k)
			want := bruteKNearest(pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].dist != want[i].dist {
					t.Fatalf("k=%d result %d: dist %v, want %v", k, i, got[i].dist, want[i].dist)
				}
			}
		}
	}
}

func TestKDTreeNearestSelf(t *testing.T) {
	pts := randomPoints(100, 3)
	tree := BuildKDTree(pts)
	for _, p := range pts[:10] {
		if got := kNearest(tree, p, 1)[0].pt; got.Idx != p.Idx {
			t.Fatalf("nearest to stored point %d = %d", p.Idx, got.Idx)
		}
	}
}

func TestKDTreeEdgeCases(t *testing.T) {
	// Empty tree.
	if out := kNearest(BuildKDTree(nil), Point2{}, 3); len(out) != 0 {
		t.Error("empty tree should return nothing")
	}
	// k <= 0.
	tree := BuildKDTree(randomPoints(5, 4))
	if out := kNearest(tree, Point2{}, 0); len(out) != 0 {
		t.Error("k=0 should return nothing")
	}
	// k > n clamps.
	if out := kNearest(tree, Point2{}, 100); len(out) != 5 {
		t.Errorf("k>n returned %d", len(out))
	}
	// Single point.
	one := BuildKDTree([]Point2{{X: 1, Y: 2, Idx: 0}})
	if got := kNearest(one, Point2{X: 0, Y: 0}, 1)[0].pt; got.Idx != 0 {
		t.Error("single-point tree wrong")
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := make([]Point2, 20)
	for i := range pts {
		pts[i] = Point2{X: 0.5, Y: 0.5, Idx: i}
	}
	tree := BuildKDTree(pts)
	got := kNearest(tree, Point2{X: 0.5, Y: 0.5}, 4)
	if len(got) != 4 {
		t.Fatalf("duplicates: %d results", len(got))
	}
	for _, nb := range got {
		if nb.dist != 0 {
			t.Error("duplicate point distance nonzero")
		}
	}
}

func TestKDTreeDoesNotMutateInput(t *testing.T) {
	pts := randomPoints(50, 5)
	before := make([]Point2, len(pts))
	copy(before, pts)
	BuildKDTree(pts)
	for i := range pts {
		if pts[i] != before[i] {
			t.Fatal("BuildKDTree mutated its input")
		}
	}
}

func TestKDTreeProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%8 + 1
		pts := randomPoints(n, seed)
		tree := BuildKDTree(pts)
		q := Point2{X: 0.3, Y: 0.7}
		got := kNearest(tree, q, k)
		want := bruteKNearest(pts, q, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].dist != want[i].dist {
				return false
			}
		}
		// Results sorted ascending.
		for i := 1; i < len(got); i++ {
			if got[i].dist < got[i-1].dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sortBuild is the build BuildKDTree used before the quickselect: a full
// sort by (coordinate, Idx) at every level. Kept as the layout oracle.
func sortBuild(points []Point2) (pts []Point2, axis []int8) {
	pts = append([]Point2(nil), points...)
	axis = make([]int8, len(pts))
	var build func(lo, hi int, depth int8)
	build = func(lo, hi int, depth int8) {
		if hi-lo <= 1 {
			if hi-lo == 1 {
				axis[lo] = depth % 2
			}
			return
		}
		ax := depth % 2
		mid := (lo + hi) / 2
		sub := pts[lo:hi]
		sort.Slice(sub, func(a, b int) bool {
			if ax == 0 {
				if sub[a].X != sub[b].X {
					return sub[a].X < sub[b].X
				}
			} else {
				if sub[a].Y != sub[b].Y {
					return sub[a].Y < sub[b].Y
				}
			}
			return sub[a].Idx < sub[b].Idx
		})
		axis[mid] = ax
		build(lo, mid, depth+1)
		build(mid+1, hi, depth+1)
	}
	build(0, len(pts), 0)
	return pts, axis
}

// gridPoints draws n points on a g x g lattice: many equal coordinates
// and, for n > g*g, coincident points.
func gridPoints(n, g int, seed int64) []Point2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point2, n)
	for i := range pts {
		pts[i] = Point2{X: float64(rng.Intn(g)) / float64(g), Y: float64(rng.Intn(g)) / float64(g), Idx: i}
	}
	return pts
}

// TestBuildMatchesSortOracle: the quickselect build lays the tree out
// exactly as the sort-based build did, and src maps every slot back to
// its input position.
func TestBuildMatchesSortOracle(t *testing.T) {
	line := func(n int, f func(i int) (x, y float64)) []Point2 {
		pts := make([]Point2, n)
		for i := range pts {
			x, y := f(i)
			pts[i] = Point2{X: x, Y: y, Idx: i}
		}
		return pts
	}
	cases := map[string][]Point2{
		"n=0":          nil,
		"n=1":          randomPoints(1, 1),
		"n=2":          randomPoints(2, 2),
		"n=3":          randomPoints(3, 3),
		"random 1024":  randomPoints(1024, 4),
		"random 1000":  randomPoints(1000, 5),
		"annulus 1024": AnnulusPoints(1024, 1),
		"rotated":      Rotate(AnnulusPoints(1024, 1), 0.002),
		"grid 4x4":     gridPoints(300, 4, 6),
		"grid 16x16":   gridPoints(777, 16, 7),
		"coincident":   gridPoints(50, 1, 8),
		"horizontal":   line(257, func(i int) (float64, float64) { return float64(i%19) / 19, 0.5 }),
		"vertical":     line(130, func(i int) (float64, float64) { return 0.25, float64(130 - i) }),
		"diagonal":     line(64, func(i int) (float64, float64) { return float64(i), float64(i) }),
		"descending":   line(513, func(i int) (float64, float64) { return float64(-i), float64(-i * 2) }),
	}
	for name, pts := range cases {
		wantPts, wantAxis := sortBuild(pts)
		tree := BuildKDTree(pts)
		if len(tree.pts) != len(wantPts) {
			t.Fatalf("%s: %d nodes, want %d", name, len(tree.pts), len(wantPts))
		}
		for i := range wantPts {
			if tree.pts[i] != wantPts[i] || tree.axis[i] != wantAxis[i] {
				t.Fatalf("%s: slot %d = %+v axis %d, oracle %+v axis %d",
					name, i, tree.pts[i], tree.axis[i], wantPts[i], wantAxis[i])
			}
			if pts[tree.src[i]] != tree.pts[i] {
				t.Fatalf("%s: slot %d src %d points at %+v, holds %+v", name, i, tree.src[i], pts[tree.src[i]], tree.pts[i])
			}
		}
	}
}

// TestNearestIntoAllocatesNothing pins the property the hotalloc lint
// guards statically.
func TestNearestIntoAllocatesNothing(t *testing.T) {
	tree := BuildKDTree(AnnulusPoints(1024, 1))
	queries := AnnulusPoints(64, 2)
	var buf [DonorsPerTarget]neighbour
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		tree.nearestInto(queries[i%len(queries)], buf[:])
		i++
	}); n != 0 {
		t.Errorf("nearestInto allocates %v times per query", n)
	}
}

// FuzzKNearest checks the tree search (nearestInto) against the
// brute-force reference on lattice points (so equal coordinates, equal
// distances and coincident points are common): for k = 1..8 both must
// return the same ascending squared distances, every result must name its
// input position, and nothing may panic.
func FuzzKNearest(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{7, 7}, uint8(7), uint8(7))
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, uint8(1), uint8(2))
	f.Add([]byte{0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5, 5, 6, 5, 7, 5, 8, 5}, uint8(4), uint8(0))
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6}, uint8(200), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(100), uint8(110))
	f.Fuzz(func(t *testing.T, data []byte, qx, qy uint8) {
		const lattice = 32
		coord := func(b uint8) float64 { return float64(b%lattice) / lattice }
		pts := make([]Point2, len(data)/2)
		for i := range pts {
			pts[i] = Point2{X: coord(data[2*i]), Y: coord(data[2*i+1]), Idx: i}
		}
		q := Point2{X: coord(qx), Y: coord(qy), Idx: -1}
		tree := BuildKDTree(pts)
		for k := 1; k <= 8; k++ {
			got := kNearest(tree, q, k)
			want := bruteKNearest(pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d over %d points: %d results, want %d", k, len(pts), len(got), len(want))
			}
			for i := range got {
				if got[i].dist != want[i].dist {
					t.Fatalf("k=%d result %d: dist %v, want %v", k, i, got[i].dist, want[i].dist)
				}
				if pts[got[i].pos] != got[i].pt {
					t.Fatalf("k=%d result %d: pos %d is %+v, result holds %+v", k, i, got[i].pos, pts[got[i].pos], got[i].pt)
				}
			}
		}
	})
}
