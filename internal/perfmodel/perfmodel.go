package perfmodel

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one standalone benchmark point.
type Sample struct {
	Cores   int
	Runtime float64 // seconds
}

// Curve is a fitted run-time model for one application and problem size:
//
//	PE(p)   = g(p)/g(base),  g(p) = 1 / (1 + (p/P50)^K)
//	T(p)    = BaseTime * BaseCores / (p * PE(p))
//
// P50 is the core count where the unnormalised efficiency crosses 50%
// and K controls how sharply it falls — the same two-parameter knee
// description the paper reads off its PE graphs (Fig. 4b).
type Curve struct {
	BaseCores int
	BaseTime  float64
	P50       float64
	K         float64
}

func gval(p, p50, k float64) float64 {
	return 1.0 / (1.0 + math.Pow(p/p50, k))
}

// PE returns the parallel efficiency at p cores, normalised to 1 at the
// base core count.
func (c *Curve) PE(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return gval(p, c.P50, c.K) / gval(float64(c.BaseCores), c.P50, c.K)
}

// Runtime returns the modelled run-time at p cores.
func (c *Curve) Runtime(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return c.BaseTime * float64(c.BaseCores) / (p * c.PE(p))
}

// Speedup returns T(base)/T(p).
func (c *Curve) Speedup(p float64) float64 { return c.BaseTime / c.Runtime(p) }

// fitCost is FitCurve's objective over samples sorted by core count:
// the squared log-runtime error of the curve (p50, k). It evaluates
// Curve.Runtime's expression with g at the base core count and each
// sample's log-runtime computed once, not per sample, so it returns the
// same bits (TestFitCurveMatchesReference).
type fitCost struct {
	ss                  []Sample
	logs                []float64
	baseCores, baseWork float64
}

func newFitCost(ss []Sample) fitCost {
	f := fitCost{ss: ss, logs: make([]float64, len(ss)),
		baseCores: float64(ss[0].Cores), baseWork: ss[0].Runtime * float64(ss[0].Cores)}
	for i, s := range ss {
		f.logs[i] = math.Log(s.Runtime)
	}
	return f
}

// at returns the cost of (p50, k) if it is below bound, the best cost so
// far; otherwise it may stop early and return any value not below bound.
// Every term is a square, so it is ≥ 0 or NaN, and rounded addition is
// monotone: no partial sum falls below a term already added, and the
// full sum is not below any one term. The largest-core term, usually
// the largest, screens first; the rest are then added in sample order
// from 0 and the screened term last — the full sum's additions, in its
// order, so an accepted cost keeps its bits (TestFitCostPrunesExactly).
func (f *fitCost) at(p50, k, bound float64) float64 {
	gBase := gval(f.baseCores, p50, k)
	last := len(f.ss) - 1
	tLast := f.term(last, p50, k, gBase)
	if !(tLast < bound) {
		return tLast
	}
	e := 0.0
	for i := 0; i < last; i++ {
		e += f.term(i, p50, k, gBase)
		if !(e < bound) {
			return e
		}
	}
	return e + tLast
}

// term is sample i's squared log-runtime error under (p50, k).
func (f *fitCost) term(i int, p50, k, gBase float64) float64 {
	p := float64(f.ss[i].Cores)
	d := math.Log(f.baseWork/(p*(gval(p, p50, k)/gBase))) - f.logs[i]
	return d * d
}

// FitCurve fits (P50, K) to benchmark samples by least squares on
// log-runtime, with a coarse grid search refined by bisection — robust,
// dependency-free, and deterministic. The sample with the fewest cores
// anchors (BaseCores, BaseTime).
func FitCurve(samples []Sample) (*Curve, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("perfmodel: need at least 2 samples, got %d", len(samples))
	}
	for i, s := range samples {
		if s.Cores <= 0 || !(s.Runtime > 0) || math.IsInf(s.Runtime, 1) {
			return nil, fmt.Errorf("perfmodel: sample %d %+v: cores and run-time must be finite and positive", i, s)
		}
	}
	ss := make([]Sample, len(samples))
	copy(ss, samples)
	sort.Slice(ss, func(a, b int) bool { return ss[a].Cores < ss[b].Cores })
	base := ss[0]
	maxCores := float64(ss[len(ss)-1].Cores)

	cost := newFitCost(ss)
	bestP50, bestK, bestE := maxCores, 1.0, math.Inf(1)
	// Coarse grid: P50 log-spaced from well below the base core count to
	// 100x the largest sample. The grid must extend below the base: a
	// component already past its 50%-efficiency knee at the smallest
	// measured core count has P50 < BaseCores, and coordinate descent
	// alone cannot reliably walk that far down from a floor at the base.
	gridLo := float64(base.Cores) / 64
	if gridLo < 0.5 {
		gridLo = 0.5
	}
	for _, k := range []float64{0.5, 0.8, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0} {
		p50 := gridLo
		for p50 <= maxCores*100 {
			if e := cost.at(p50, k, bestE); e < bestE {
				bestE, bestP50, bestK = e, p50, k
			}
			p50 *= 1.15
		}
	}
	// Local refinement by coordinate descent.
	for iter := 0; iter < 40; iter++ {
		improved := false
		for _, f := range []float64{0.97, 1.03} {
			if e := cost.at(bestP50*f, bestK, bestE); e < bestE {
				bestE, bestP50, improved = e, bestP50*f, true
			}
			if e := cost.at(bestP50, bestK*f, bestE); e < bestE && bestK*f > 0.1 {
				bestE, bestK, improved = e, bestK*f, true
			}
		}
		if !improved {
			break
		}
	}
	return &Curve{BaseCores: base.Cores, BaseTime: base.Runtime, P50: bestP50, K: bestK}, nil
}

// Component is one entry of the allocation problem: a solver instance or
// a coupling unit, with its fitted curve and its size/iteration scaling
// relative to the curve's base case.
type Component struct {
	Name      string
	Curve     *Curve
	SizeRatio float64 // problem size / base-case size
	IterRatio float64 // iterations / base-case iterations
	IsCU      bool
	MinRanks  int // starting allocation (the paper uses 100 for the full engine)
}

// Time returns the modelled run-time of the component on the given cores.
func (cp *Component) Time(cores int) float64 {
	sr, ir := cp.SizeRatio, cp.IterRatio
	if sr == 0 {
		sr = 1
	}
	if ir == 0 {
		ir = 1
	}
	return cp.Curve.Runtime(float64(cores)) * sr * ir
}

func (cp *Component) minRanks() int {
	if cp.MinRanks > 0 {
		return cp.MinRanks
	}
	return 1
}

// Allocation is the result of the greedy distribution.
type Allocation struct {
	Components []Component
	Cores      []int
	Times      []float64
	// Predicted coupled run-time: MAX over instances + MAX over CUs.
	Predicted float64
	MaxApp    float64
	MaxCU     float64
	// Unallocated cores: the loop stops early once neither the slowest
	// instance nor the slowest CU gains run-time from another core (the
	// paper's Fig. 9b allocations sum to well under the 40,000 budget for
	// exactly this reason — past its PE knee a component cannot usefully
	// absorb more ranks).
	Unallocated int
}

// slowHeap is a max-heap of (run-time, component index) entries, ties
// broken towards the smaller index — exactly the order a linear
// first-max scan over the times slice produces, so the heap-based
// Allocate picks the same component as the naive loop on every
// iteration. Only the top's time ever changes between fixes, so a
// single sift-down restores the invariant.
type slowHeap struct {
	ents []heapEnt
}

type heapEnt struct {
	t   float64 // current modelled run-time
	idx int     // component index
}

func entBefore(a, b heapEnt) bool {
	if a.t != b.t {
		return a.t > b.t
	}
	return a.idx < b.idx
}

func (h *slowHeap) push(e heapEnt) {
	h.ents = append(h.ents, e)
	c := len(h.ents) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !entBefore(h.ents[c], h.ents[p]) {
			break
		}
		h.ents[c], h.ents[p] = h.ents[p], h.ents[c]
		c = p
	}
}

// fix restores heap order after the top's time was set to t.
func (h *slowHeap) fix(t float64) {
	ents := h.ents
	n := len(ents)
	e := heapEnt{t, ents[0].idx}
	p := 0
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && entBefore(ents[r], ents[c]) {
			c = r
		}
		if !entBefore(ents[c], e) {
			break
		}
		ents[p] = ents[c]
		p = c
	}
	ents[p] = e
}

// evalConst holds the loop-invariant terms of one component's run-time
// model, factored so an evaluation costs a single math.Pow.
type evalConst struct {
	p50, k, gbase, num, sr, ir float64
}

// eval returns the component's modelled run-time at c cores —
// bitwise identical to Component.Time(c) (same operations, same
// operand bits, same order).
func (e *evalConst) eval(c int) float64 {
	p := float64(c)
	pe := gval(p, e.p50, e.k) / e.gbase
	return e.num / (p * pe) * e.sr * e.ir
}

// Allocate runs Algorithm 1: starting every component at its minimum
// allocation, repeatedly give one core to the slowest instance or the
// slowest coupling unit — whichever gains more run-time from it — until
// the budget is spent or no positive gain remains.
//
// The loop grants one core at a time but never rescans the component
// list: two max-heaps (instances, CUs) track the slowest member of each
// class, and the run-time a component would have with one more core is
// cached per component and invalidated only for the picked one. One
// granted core therefore costs one curve evaluation and a sift-down,
// instead of the two full scans and four evaluations of the naive loop
// (see TestAllocateMatchesReference for the equivalence proof and
// bench's perfmodel.allocate_ms probe for the host cost).
func Allocate(components []Component, budget int) (*Allocation, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("perfmodel: no components")
	}
	cores := make([]int, len(components))
	spent := 0
	for i := range components {
		cores[i] = components[i].minRanks()
		spent += cores[i]
	}
	if spent > budget {
		return nil, fmt.Errorf("perfmodel: minimum allocations (%d) exceed budget (%d)", spent, budget)
	}
	times := make([]float64, len(components))
	// Per-component evaluation constants: gval at the base core count,
	// the BaseTime*BaseCores numerator and the defaulted ratios are fixed
	// for the whole loop, so each Time evaluation costs one math.Pow
	// instead of two. The factored expression performs the identical
	// floating-point operations on identical operands in the same order
	// as Component.Time, so the results are bitwise equal — which the
	// differential test against the naive loop asserts.
	consts := make([]evalConst, len(components))
	for i := range components {
		cv := components[i].Curve
		e := evalConst{
			p50: cv.P50, k: cv.K,
			gbase: gval(float64(cv.BaseCores), cv.P50, cv.K),
			num:   cv.BaseTime * float64(cv.BaseCores),
			sr:    components[i].SizeRatio, ir: components[i].IterRatio,
		}
		if e.sr == 0 {
			e.sr = 1
		}
		if e.ir == 0 {
			e.ir = 1
		}
		consts[i] = e
	}
	// Per-component mutable loop state, one cache line hit per access:
	// the granted core count and the cached one-more-core run-time (NaN =
	// stale; real run-times are never NaN).
	type compState struct {
		next  float64
		cores int
	}
	st := make([]compState, len(components))
	apps := &slowHeap{}
	cus := &slowHeap{}
	for i := range components {
		times[i] = consts[i].eval(cores[i])
		st[i] = compState{next: math.NaN(), cores: cores[i]}
		if components[i].IsCU {
			cus.push(heapEnt{times[i], i})
		} else {
			apps.push(heapEnt{times[i], i})
		}
	}
	// topGain returns the marginal gain of the class's slowest component,
	// filling its stale one-more-core cache if needed.
	topGain := func(h *slowHeap) float64 {
		if len(h.ents) == 0 {
			return math.Inf(-1)
		}
		e := h.ents[0]
		s := &st[e.idx]
		if s.next != s.next { // NaN: recompute the one-more-core time
			s.next = consts[e.idx].eval(s.cores + 1)
		}
		return e.t - s.next
	}
	remaining := budget - spent
	// Granting a core changes one heap only, so the other class's top
	// gain carries over between iterations as a cached float.
	gainApp, gainCU := topGain(apps), topGain(cus)
	// The class comparison must stay `gainCU > gainApp` (not >=): ties —
	// and NaN gains, which compare false — go to the instance class,
	// exactly as the naive scan decides them. An empty class carries
	// gain -Inf, so `g <= 0` doubles as the emptiness check and no heap
	// is indexed while empty. The grant body is duplicated per class so
	// each side touches its heap through a constant pointer.
	for ; remaining > 0; remaining-- {
		if gainCU > gainApp {
			if gainCU <= 0 {
				break // nothing left to improve: idle the remaining cores
			}
			pick := cus.ents[0].idx
			s := &st[pick]
			s.cores++
			// eval is pure, so the cached eval(cores+1) IS the new
			// current time — no re-evaluation, bit for bit. The heap
			// entry carries it; times[] is rebuilt after the loop.
			t := s.next
			s.next = math.NaN()
			cus.fix(t)
			// Refresh this class's gain inline: the heap cannot have
			// emptied (fix keeps its size) so the topGain guard is dead.
			e := cus.ents[0]
			ts := &st[e.idx]
			if ts.next != ts.next {
				// eval, spelled out so it inlines (same ops, same order).
				ec := &consts[e.idx]
				p := float64(ts.cores + 1)
				pe := gval(p, ec.p50, ec.k) / ec.gbase
				ts.next = ec.num / (p * pe) * ec.sr * ec.ir
			}
			gainCU = e.t - ts.next
		} else {
			if gainApp <= 0 {
				break
			}
			pick := apps.ents[0].idx
			s := &st[pick]
			s.cores++
			t := s.next
			s.next = math.NaN()
			apps.fix(t)
			e := apps.ents[0]
			ts := &st[e.idx]
			if ts.next != ts.next {
				ec := &consts[e.idx]
				p := float64(ts.cores + 1)
				pe := gval(p, ec.p50, ec.k) / ec.gbase
				ts.next = ec.num / (p * pe) * ec.sr * ec.ir
			}
			gainApp = e.t - ts.next
		}
	}
	for i := range st {
		cores[i] = st[i].cores
	}
	// The heap entries hold each component's final run-time (every grant
	// updated the entry in place); fold them back into times[].
	for _, e := range apps.ents {
		times[e.idx] = e.t
	}
	for _, e := range cus.ents {
		times[e.idx] = e.t
	}
	// Copy the caller's slice: the Allocation (and any cache retaining
	// it) must not see later mutations of the input, nor vice versa.
	held := make([]Component, len(components))
	copy(held, components)
	out := &Allocation{Components: held, Cores: cores, Times: times, Unallocated: remaining}
	for i := range components {
		if components[i].IsCU {
			out.MaxCU = math.Max(out.MaxCU, times[i])
		} else {
			out.MaxApp = math.Max(out.MaxApp, times[i])
		}
	}
	out.Predicted = out.MaxApp + out.MaxCU
	return out, nil
}

// String renders the allocation as an aligned table (Fig. 9b style).
func (a *Allocation) String() string {
	s := fmt.Sprintf("%-24s %6s %12s %14s\n", "component", "type", "ranks", "time(s)")
	for i, cp := range a.Components {
		kind := "app"
		if cp.IsCU {
			kind = "CU"
		}
		s += fmt.Sprintf("%-24s %6s %12d %14.3f\n", cp.Name, kind, a.Cores[i], a.Times[i])
	}
	s += fmt.Sprintf("predicted run-time: %.3f s (apps %.3f + CUs %.3f)\n", a.Predicted, a.MaxApp, a.MaxCU)
	return s
}

// PredictSpeedup compares two allocations (e.g. Optimized-STC vs
// Base-STC at the same budget) as T(base)/T(other).
func PredictSpeedup(base, other *Allocation) float64 {
	if other.Predicted == 0 {
		return math.Inf(1)
	}
	return base.Predicted / other.Predicted
}

// RelativeError returns |predicted-actual| / actual.
func RelativeError(predicted, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / actual
}
