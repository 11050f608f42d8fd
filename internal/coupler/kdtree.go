//perf:hotpath
package coupler

// Point2 is a point on a coupling interface plane.
type Point2 struct {
	X, Y float64
	Idx  int // original index
}

func sqDist(a, b Point2) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// KDTree is a 2-D k-d tree over interface points.
type KDTree struct {
	pts  []Point2 // stored in tree order
	axis []int8   // split axis per node
	src  []int32  // src[i] is the position of pts[i] in the build input
}

// BuildKDTree constructs a balanced tree (median splits). The input slice
// is not modified.
func BuildKDTree(points []Point2) *KDTree {
	t := &KDTree{} //lint:allow hotalloc the tree is the result
	t.rebuild(points)
	return t
}

// rebuild makes t the tree over points, in its own arrays when they hold
// them.
func (t *KDTree) rebuild(points []Point2) {
	n := len(points)
	t.pts, t.axis, t.src = resized(t.pts, n), resized(t.axis, n), resized(t.src, n)
	copy(t.pts, points)
	for i := range t.src {
		t.src[i] = int32(i)
	}
	t.build(0, n, 0)
}

// before is the build order along one axis: by coordinate, ties by Idx.
// With distinct Idx values it is a strict total order, so the median of
// a point set and the sets on either side of it are unique; any correct
// selection therefore arranges the tree exactly as a full sort would.
func before(a, b Point2, axis int8) bool {
	ca, cb := a.X, b.X
	if axis != 0 {
		ca, cb = a.Y, b.Y
	}
	if ca != cb {
		return ca < cb
	}
	return a.Idx < b.Idx
}

// build arranges pts[lo:hi] into subtree form: the median element at the
// middle position, smaller coordinates left, larger right.
func (t *KDTree) build(lo, hi int, depth int8) {
	axis := depth % 2
	if hi-lo <= 1 {
		if hi-lo == 1 {
			t.axis[lo] = axis
		}
		return
	}
	mid := (lo + hi) / 2
	t.selectNth(lo, hi, mid, axis)
	t.axis[mid] = axis
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// selectNth is a median-of-three quickselect: it places the element that
// sorting pts[lo:hi] by before would put at position nth there, with
// every smaller element left of it and every larger one right. Expected
// O(hi-lo), which makes the whole build O(n log n).
func (t *KDTree) selectNth(lo, hi, nth int, axis int8) {
	pts := t.pts
	l, r := lo, hi-1
	for l < r {
		m := l + (r-l)/2
		if before(pts[m], pts[l], axis) {
			t.swap(m, l)
		}
		if before(pts[r], pts[l], axis) {
			t.swap(r, l)
		}
		if before(pts[r], pts[m], axis) {
			t.swap(r, m)
		}
		pivot := pts[m]
		i, j := l, r
		for i <= j {
			for before(pts[i], pivot, axis) {
				i++
			}
			for before(pivot, pts[j], axis) {
				j--
			}
			if i <= j {
				t.swap(i, j)
				i++
				j--
			}
		}
		// pts[l..j] <= pivot <= pts[i..r], anything between equals it.
		switch {
		case nth <= j:
			r = j
		case nth >= i:
			l = i
		default:
			return
		}
	}
}

func (t *KDTree) swap(i, j int) {
	t.pts[i], t.pts[j] = t.pts[j], t.pts[i]
	t.src[i], t.src[j] = t.src[j], t.src[i]
}

// neighbour is one k-NN result.
type neighbour struct {
	pt   Point2
	dist float64 // squared distance
	pos  int     // position of pt in the searched point array
}

// knnQuery is the state of one k-nearest search: the query point and the
// best candidates so far, closest first, in a buffer whose capacity is k.
type knnQuery struct {
	q    Point2
	best []neighbour
}

// worst is the distance a candidate must beat to enter the result.
func (s *knnQuery) worst() float64 {
	if len(s.best) < cap(s.best) {
		return 1e308
	}
	return s.best[len(s.best)-1].dist
}

// offer inserts a candidate behind any equally distant ones already
// held, dropping the farthest when the buffer is full.
func (s *knnQuery) offer(p Point2, pos int) {
	d := sqDist(p, s.q)
	n := len(s.best)
	if n == cap(s.best) {
		if d >= s.best[n-1].dist {
			return
		}
		n--
	}
	s.best = s.best[:n+1]
	i := n
	for ; i > 0 && s.best[i-1].dist > d; i-- {
		s.best[i] = s.best[i-1]
	}
	s.best[i] = neighbour{p, d, pos}
}

// nearestInto returns the k = cap(buf) nearest stored points to q (fewer
// if the tree holds fewer), closest first. The result reuses buf's
// storage, and the search allocates nothing.
func (t *KDTree) nearestInto(q Point2, buf []neighbour) []neighbour {
	s := knnQuery{q: q, best: buf[:0]}
	if cap(buf) > 0 {
		t.visit(0, len(t.pts), &s)
	}
	return s.best
}

func (t *KDTree) visit(lo, hi int, s *knnQuery) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	s.offer(t.pts[mid], int(t.src[mid]))
	qc, mc := s.q.X, t.pts[mid].X
	if t.axis[mid] != 0 {
		qc, mc = s.q.Y, t.pts[mid].Y
	}
	nearLo, nearHi, farLo, farHi := mid+1, hi, lo, mid
	if qc < mc {
		nearLo, nearHi, farLo, farHi = lo, mid, mid+1, hi
	}
	t.visit(nearLo, nearHi, s)
	if d := qc - mc; d*d < s.worst() {
		t.visit(farLo, farHi, s)
	}
}
