package coupler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"cpx/internal/cluster"
)

// Search selects the donor-search strategy of a coupling unit.
type Search int

// Search strategies (Section V-B / [31]).
const (
	BruteForce   Search = iota // O(targets * donors) reference
	Tree                       // k-d tree over the donors
	TreePrefetch               // k-d tree + donor cache warm-started from the previous exchange
)

func (s Search) String() string {
	switch s {
	case BruteForce:
		return "brute-force"
	case Tree:
		return "kd-tree"
	default:
		return "kd-tree+prefetch"
	}
}

// ParseSearch maps the scenario-file spelling of a donor-search strategy
// to its value, case-insensitively; empty means prefetch.
func ParseSearch(name string) (Search, error) {
	switch strings.ToLower(name) {
	case "brute":
		return BruteForce, nil
	case "tree":
		return Tree, nil
	case "", "prefetch":
		return TreePrefetch, nil
	}
	return 0, fmt.Errorf("unknown search %q (want brute, tree or prefetch)", name)
}

// Search work constants (per candidate distance evaluation, per tree node
// visit, per tree-build comparison).
const (
	distEvalFlops  = 8.0
	distEvalBytes  = 24.0
	treeVisitFlops = 40.0
	treeVisitBytes = 64.0
	buildFlops     = 30.0
	buildBytes     = 48.0
)

// DonorsPerTarget is the interpolation stencil size.
const DonorsPerTarget = 4

// Mapping is a computed interface mapping: for each target point, the
// donor indices (into the donor point array) and inverse-distance
// weights.
type Mapping struct {
	Donors  [][]int
	Weights [][]float64
}

// Mapper computes interface mappings with a configurable strategy and
// carries the donor cache between exchanges for TreePrefetch.
type Mapper struct {
	Kind  Search
	cache [][]int // previous donors per target

	// last is the most recent mapping (kept by coupling units between
	// exchanges for steady-state interfaces).
	last *Mapping

	// hit/miss statistics of the last Map call (prefetch mode).
	LastHits, LastMisses int
}

// donorIndex is the search structure over one donor point set: the points
// in donor-array order and what the strategy needs to search them. It is
// immutable once built, so one index may serve any number of Mappers —
// the CU ranks of a unit share theirs (unitIndices in sim.go).
type donorIndex struct {
	pts     []Point2
	tree    *KDTree // nil for BruteForce
	spacing float64 // mean donor spacing; TreePrefetch only
}

func newDonorIndex(donors []Point2, kind Search) *donorIndex {
	if len(donors) == 0 {
		panic("coupler: Map with no donor points")
	}
	ix := &donorIndex{pts: donors}
	if kind != BruteForce {
		ix.tree = BuildKDTree(donors)
	}
	if kind == TreePrefetch {
		ix.spacing = meanSpacing(donors, ix.tree)
	}
	return ix
}

// Map computes the donor mapping from donors to targets. Pure real
// computation on the given (possibly scaled-down) point sets.
func (m *Mapper) Map(targets, donors []Point2) *Mapping {
	return m.mapIndexed(targets, newDonorIndex(donors, m.Kind))
}

// mapIndexed is Map over a prebuilt index of the donors (built for
// m.Kind). It only reads the index.
func (m *Mapper) mapIndexed(targets []Point2, ix *donorIndex) *Mapping {
	donors := ix.pts
	// One backing array per field; target ti's stencil is a
	// capacity-limited window of it.
	out := &Mapping{
		Donors:  make([][]int, len(targets)),
		Weights: make([][]float64, len(targets)),
	}
	idxSlab := make([]int, 0, len(targets)*DonorsPerTarget)
	wSlab := make([]float64, 0, len(targets)*DonorsPerTarget)
	var cache [][]int
	var cacheSlab []int
	if m.Kind == TreePrefetch {
		cache = make([][]int, len(targets))
		cacheSlab = make([]int, 0, len(targets)*DonorsPerTarget)
	}
	m.LastHits, m.LastMisses = 0, 0
	// Acceptance radius for cached donors: twice the mean donor spacing.
	accept2 := 4 * ix.spacing * ix.spacing
	var buf [DonorsPerTarget]neighbour
	for ti, q := range targets {
		var nbrs []neighbour
		switch {
		case m.Kind == BruteForce:
			nbrs = bruteKNearest(donors, q, DonorsPerTarget)
		case m.Kind == TreePrefetch && m.cache != nil && ti < len(m.cache):
			// Validate the cached donors at their new positions.
			cand := m.cache[ti]
			bestD := math.MaxFloat64
			for _, di := range cand {
				if di < len(donors) {
					if d := sqDist(donors[di], q); d < bestD {
						bestD = d
					}
				}
			}
			if bestD <= accept2 {
				m.LastHits++
				nbrs = buf[:0]
				for _, di := range cand {
					if di < len(donors) {
						nbrs = append(nbrs, neighbour{donors[di], sqDist(donors[di], q), di})
					}
				}
			} else {
				m.LastMisses++
				nbrs = ix.tree.nearestInto(q, buf[:])
			}
		default:
			nbrs = ix.tree.nearestInto(q, buf[:])
		}
		lo, hi := len(idxSlab), len(idxSlab)+len(nbrs)
		wSum := 0.0
		for _, nb := range nbrs {
			w := 1.0 / (math.Sqrt(nb.dist) + 1e-12)
			idxSlab = append(idxSlab, nb.pt.Idx)
			wSlab = append(wSlab, w)
			wSum += w
		}
		out.Donors[ti] = idxSlab[lo:hi:hi]
		out.Weights[ti] = wSlab[lo:hi:hi]
		for i := range out.Weights[ti] {
			out.Weights[ti][i] /= wSum
		}
		// The cache holds positions in the donor array (not original
		// indices): donor arrays keep a stable order between exchanges.
		if cache != nil {
			for _, nb := range nbrs {
				cacheSlab = append(cacheSlab, nb.pos)
			}
			cache[ti] = cacheSlab[lo:hi:hi]
		}
	}
	if cache != nil {
		m.cache = cache
	}
	return out
}

// meanSpacing estimates the mean nearest-neighbour spacing of a point set
// from a sample, searching the tree built over it.
func meanSpacing(pts []Point2, tree *KDTree) float64 {
	n := len(pts)
	if n < 2 {
		return 1
	}
	step := n / 16
	if step == 0 {
		step = 1
	}
	sum, cnt := 0.0, 0
	var buf [2]neighbour
	for i := 0; i < n; i += step {
		nb := tree.nearestInto(pts[i], buf[:]) // nearest excluding self
		sum += math.Sqrt(nb[len(nb)-1].dist)
		cnt++
	}
	return sum / float64(cnt)
}

// bruteKNearest is the reference O(n) search used by the brute-force CU
// mode and by tests.
func bruteKNearest(pts []Point2, q Point2, k int) []neighbour {
	if k > len(pts) {
		k = len(pts)
	}
	all := make([]neighbour, len(pts))
	for i, p := range pts {
		all[i] = neighbour{p, sqDist(p, q), i}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].pt.Idx < all[b].pt.Idx
	})
	return all[:k]
}

// MapWork returns the roofline work of one mapping at the true interface
// sizes, for the strategy used, using the hit rate observed on the
// simulated points. rebuild reports whether the tree had to be (re)built
// (always for sliding planes; once for steady state). It is what one rank
// doing the whole search itself would pay, and every CU rank is charged
// it whether or not the host shared the index among them.
func (m *Mapper) MapWork(trueTargets, trueDonors float64, rebuild bool) cluster.Work {
	var w cluster.Work
	logD := math.Log2(math.Max(trueDonors, 2))
	switch m.Kind {
	case BruteForce:
		w.Flops = distEvalFlops * trueTargets * trueDonors
		w.Bytes = distEvalBytes * trueTargets * trueDonors
	case Tree:
		if rebuild {
			w.Flops += buildFlops * trueDonors * logD
			w.Bytes += buildBytes * trueDonors * logD
		}
		w.Flops += treeVisitFlops * trueTargets * logD
		w.Bytes += treeVisitBytes * trueTargets * logD
	case TreePrefetch:
		hitRate := 1.0
		if m.LastHits+m.LastMisses > 0 {
			hitRate = float64(m.LastHits) / float64(m.LastHits+m.LastMisses)
		}
		if rebuild {
			// The tree is rebuilt lazily only for the misses' benefit; the
			// production implementation amortises it, modelled as a build
			// over the miss fraction of donors.
			w.Flops += buildFlops * trueDonors * logD * (1 - hitRate)
			w.Bytes += buildBytes * trueDonors * logD * (1 - hitRate)
		}
		hits := trueTargets * hitRate
		misses := trueTargets - hits
		w.Flops += distEvalFlops*float64(DonorsPerTarget)*hits + treeVisitFlops*misses*logD
		w.Bytes += distEvalBytes*float64(DonorsPerTarget)*hits + treeVisitBytes*misses*logD
	}
	return w
}

// Interpolate applies a mapping to donor values, producing target values.
func (mp *Mapping) Interpolate(donorVals []float64) []float64 {
	out := make([]float64, len(mp.Donors))
	for ti, idx := range mp.Donors {
		s := 0.0
		for i, di := range idx {
			s += mp.Weights[ti][i] * donorVals[di]
		}
		out[ti] = s
	}
	return out
}

// InterpolateWork returns the roofline cost of applying the mapping at
// true sizes.
func InterpolateWork(trueTargets float64) cluster.Work {
	return cluster.Work{
		Flops: 2 * float64(DonorsPerTarget) * trueTargets,
		Bytes: 24 * float64(DonorsPerTarget) * trueTargets,
	}
}

// AnnulusPoints generates n jittered points on an annular interface
// (r in [0.8, 1.0]), deterministic per seed. Idx fields are 0..n-1.
func AnnulusPoints(n int, seed int64) []Point2 {
	return AnnulusPointsRand(n, rand.New(rand.NewSource(seed)))
}

// AnnulusPointsRand is AnnulusPoints drawing from an explicit generator,
// for callers that thread one seeded stream through a whole setup phase.
func AnnulusPointsRand(n int, rng *rand.Rand) []Point2 {
	pts := make([]Point2, n)
	for i := range pts {
		r := 0.8 + 0.2*rng.Float64()
		th := 2 * math.Pi * rng.Float64()
		pts[i] = Point2{X: r * math.Cos(th), Y: r * math.Sin(th), Idx: i}
	}
	return pts
}

// Rotate returns the points rotated by dtheta about the origin — the
// per-step motion of a rotor row's sliding-plane interface.
func Rotate(pts []Point2, dtheta float64) []Point2 {
	c, s := math.Cos(dtheta), math.Sin(dtheta)
	out := make([]Point2, len(pts))
	for i, p := range pts {
		out[i] = Point2{X: c*p.X - s*p.Y, Y: s*p.X + c*p.Y, Idx: p.Idx}
	}
	return out
}

// Validate sanity-checks a mapping: every target has donors with weights
// summing to one.
func (mp *Mapping) Validate() error {
	for ti, idx := range mp.Donors {
		if len(idx) == 0 {
			return fmt.Errorf("coupler: target %d has no donors", ti)
		}
		sum := 0.0
		for _, w := range mp.Weights[ti] {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("coupler: target %d weights sum to %v", ti, sum)
		}
	}
	return nil
}
