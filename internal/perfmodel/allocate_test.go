package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// allocateReference is the pre-heap Algorithm 1 loop, kept verbatim as
// the differential oracle: per granted core it rescans every component
// for the two class maxima and re-evaluates the curve for each gain
// check. The fast path must reproduce its picks exactly.
func allocateReference(components []Component, budget int) (*Allocation, error) {
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
	recompute := func(i int) { times[i] = components[i].Time(cores[i]) }
	for i := range components {
		recompute(i)
	}
	argmax := func(cu bool) int {
		best, bestT := -1, -1.0
		for i := range components {
			if components[i].IsCU == cu && times[i] > bestT {
				best, bestT = i, times[i]
			}
		}
		return best
	}
	remaining := budget - spent
	for ; remaining > 0; remaining-- {
		appMax := argmax(false)
		cuMax := argmax(true)
		gain := func(i int) float64 {
			if i < 0 {
				return math.Inf(-1)
			}
			return times[i] - components[i].Time(cores[i]+1)
		}
		pick := appMax
		if gain(cuMax) > gain(appMax) {
			pick = cuMax
		}
		if pick < 0 || gain(pick) <= 0 {
			break
		}
		cores[pick]++
		recompute(pick)
	}
	out := &Allocation{Components: components, Cores: cores, Times: times, Unallocated: remaining}
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

// paperScaleComponents builds a Fig. 9b-style problem: n components with
// staggered knees and base times, every third one a coupling unit.
func paperScaleComponents(n int) []Component {
	comps := make([]Component, n)
	for i := range comps {
		base := 20 + 37*float64(i%7)
		p50 := 500 + 900*float64(i%5)
		k := 1.1 + 0.2*float64(i%4)
		min := 1 + i%3
		if i%3 == 2 {
			// CUs: small base time, early knee, as in the paper.
			base, p50, min = 0.5+0.1*float64(i), 150+40*float64(i%4), 1
		}
		comps[i] = Component{
			Name:      fmt.Sprintf("comp-%02d", i),
			Curve:     &Curve{BaseCores: 100, BaseTime: base, P50: p50, K: k},
			IsCU:      i%3 == 2,
			MinRanks:  100 * min,
			SizeRatio: 1 + 0.5*float64(i%3),
			IterRatio: 1 + float64(i%2),
		}
	}
	return comps
}

func sameAllocation(t *testing.T, fast, ref *Allocation) {
	t.Helper()
	if len(fast.Cores) != len(ref.Cores) {
		t.Fatalf("component counts differ: %d vs %d", len(fast.Cores), len(ref.Cores))
	}
	for i := range ref.Cores {
		if fast.Cores[i] != ref.Cores[i] {
			t.Errorf("cores[%d] = %d, reference %d", i, fast.Cores[i], ref.Cores[i])
		}
		if fast.Times[i] != ref.Times[i] {
			t.Errorf("times[%d] = %v, reference %v (not bitwise identical)", i, fast.Times[i], ref.Times[i])
		}
	}
	if fast.Unallocated != ref.Unallocated {
		t.Errorf("unallocated = %d, reference %d", fast.Unallocated, ref.Unallocated)
	}
	if fast.Predicted != ref.Predicted || fast.MaxApp != ref.MaxApp || fast.MaxCU != ref.MaxCU {
		t.Errorf("summary (%v, %v, %v) differs from reference (%v, %v, %v)",
			fast.Predicted, fast.MaxApp, fast.MaxCU, ref.Predicted, ref.MaxApp, ref.MaxCU)
	}
}

// referenceCase is one Algorithm 1 problem the fast paths are held to
// the naive loop on.
type referenceCase struct {
	name   string
	comps  []Component
	budget int
}

// referenceCases spans the problem shapes, including exact-tie curves
// (identical components) where the first-index tie-break is what
// decides the allocation, and a walk that stops on no gain.
func referenceCases() []referenceCase {
	return []referenceCase{
		{"paper-40k", paperScaleComponents(20), 40_000},
		{"small-mixed", paperScaleComponents(7), 2_000},
		{"single-app", paperScaleComponents(1), 500},
		{"ties", []Component{
			{Name: "a", Curve: &Curve{BaseCores: 1, BaseTime: 10, P50: 1000, K: 1.2}},
			{Name: "b", Curve: &Curve{BaseCores: 1, BaseTime: 10, P50: 1000, K: 1.2}},
			{Name: "c", Curve: &Curve{BaseCores: 1, BaseTime: 10, P50: 1000, K: 1.2}, IsCU: true},
			{Name: "d", Curve: &Curve{BaseCores: 1, BaseTime: 10, P50: 1000, K: 1.2}, IsCU: true},
		}, 801},
		{"saturating", []Component{
			{Name: "kneed", Curve: &Curve{BaseCores: 1, BaseTime: 100, P50: 50, K: 2}},
			{Name: "scaler", Curve: &Curve{BaseCores: 1, BaseTime: 100, P50: 1e7, K: 1}, IsCU: true},
		}, 3_000},
	}
}

// TestAllocateMatchesReference proves the heap-based fast path grants
// cores identically to the naive rescan loop on every reference case.
func TestAllocateMatchesReference(t *testing.T) {
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := Allocate(tc.comps, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := allocateReference(tc.comps, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			sameAllocation(t, fast, ref)
		})
	}
}

// minSum is Σ MinRanks as Algorithm 1 counts it (a zero minimum is 1).
func minSum(comps []Component) int {
	s := 0
	for i := range comps {
		s += comps[i].minRanks()
	}
	return s
}

// sweepBudgets returns the budgets from Σ MinRanks up to tc.budget in
// shuffled order. The naive loop costs up to 4.5 ms a call on
// paper-40k's 37,301 budgets, so that case takes about 256 of them, a
// stride with a random phase, and every case takes about 64 under -short.
func sweepBudgets(t *testing.T, tc referenceCase, rng *rand.Rand) []int {
	lo := minSum(tc.comps)
	n := tc.budget - lo + 1
	stride := 1
	if n > 4_000 {
		stride = max(1, n/256)
	}
	if testing.Short() {
		stride = max(1, n/64)
	}
	var out []int
	for b := lo + rng.Intn(stride); b <= tc.budget; b += stride {
		out = append(out, b)
	}
	out = append(out, lo, tc.budget)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestPlanMatchesReference: one plan answers a budget sweep of every
// reference case in shuffled order, so the walk is extended in the
// middle of the sequence and earlier budgets are replayed from a longer
// record. Every answer is bitwise the naive loop's at that budget and
// owns its Components copy.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewPlan(tc.comps)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range sweepBudgets(t, tc, rng) {
				got, err := plan.Allocate(b)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := allocateReference(tc.comps, b)
				if err != nil {
					t.Fatal(err)
				}
				sameAllocation(t, got, ref)
				if t.Failed() {
					t.Fatalf("budget %d", b)
				}
				got.Components[0].Name = "mutated"
			}
			if tc.comps[0].Name == "mutated" {
				t.Fatal("an Allocation aliases the caller's components")
			}
			if a, _ := plan.Allocate(tc.budget); a.Components[0].Name == "mutated" {
				t.Fatal("an Allocation aliases the plan's components")
			}
		})
	}
	t.Run("below-minimums", func(t *testing.T) {
		comps := paperScaleComponents(7)
		plan, err := NewPlan(comps)
		if err != nil {
			t.Fatal(err)
		}
		_, err = plan.Allocate(minSum(comps) - 1)
		_, ref := allocateReference(comps, minSum(comps)-1)
		if err == nil || ref == nil || err.Error() != ref.Error() {
			t.Fatalf("error %v, reference %v", err, ref)
		}
	})
}

// TestPlanConcurrentAllocate: two goroutines sweep one plan's budgets,
// one from the lowest and one from the middle, so each extends the walk
// while the other replays it;
// run under -race it is the proof that sharing a plan is safe.
func TestPlanConcurrentAllocate(t *testing.T) {
	cases := referenceCases()
	tc := cases[slices.IndexFunc(cases, func(c referenceCase) bool { return c.name == "ties" })]
	comps := tc.comps
	lo, hi := minSum(comps), tc.budget
	refs := make([]*Allocation, hi-lo+1)
	for i := range refs {
		var err error
		if refs[i], err = allocateReference(comps, lo+i); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := NewPlan(comps)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := [2][]*Allocation{make([]*Allocation, len(refs)), make([]*Allocation, len(refs))}
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range refs {
				i := k
				if g == 1 {
					i = (k + len(refs)/2) % len(refs)
				}
				a, err := plan.Allocate(lo + i)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = a
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, a := range got[g] {
			if a != nil {
				sameAllocation(t, a, refs[i])
			}
		}
	}
}

// TestAllocateDegenerate covers the edge shapes of Algorithm 1.
func TestAllocateDegenerate(t *testing.T) {
	flat := func(base float64) *Curve { return &Curve{BaseCores: 1, BaseTime: base, P50: 1e6, K: 1.2} }
	t.Run("budget-equals-minimums", func(t *testing.T) {
		comps := []Component{
			{Name: "a", Curve: flat(10), MinRanks: 30},
			{Name: "cu", Curve: flat(1), MinRanks: 12, IsCU: true},
		}
		alloc, err := Allocate(comps, 42)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Cores[0] != 30 || alloc.Cores[1] != 12 {
			t.Errorf("cores %v, want the minimums [30 12]", alloc.Cores)
		}
		if alloc.Unallocated != 0 {
			t.Errorf("unallocated = %d, want 0", alloc.Unallocated)
		}
	})
	t.Run("all-CU", func(t *testing.T) {
		comps := []Component{
			{Name: "cu1", Curve: flat(2), IsCU: true},
			{Name: "cu2", Curve: flat(5), IsCU: true},
		}
		alloc, err := Allocate(comps, 300)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.MaxApp != 0 {
			t.Errorf("MaxApp = %v, want 0 with no instances", alloc.MaxApp)
		}
		if alloc.Predicted != alloc.MaxCU {
			t.Errorf("Predicted = %v, want MaxCU %v", alloc.Predicted, alloc.MaxCU)
		}
		if alloc.Cores[0]+alloc.Cores[1]+alloc.Unallocated != 300 {
			t.Errorf("core accounting broken: %v + %d", alloc.Cores, alloc.Unallocated)
		}
		ref, _ := allocateReference(comps, 300)
		sameAllocation(t, alloc, ref)
	})
	t.Run("minimums-overflow", func(t *testing.T) {
		// Σ MinRanks = 3·2^62 wraps to −2^62 in int arithmetic; a wrapped
		// sum passed the budget check and started a walk of 2^62 grants.
		comps := []Component{
			{Name: "a", Curve: flat(10), MinRanks: 1 << 62},
			{Name: "b", Curve: flat(10), MinRanks: 1 << 62},
			{Name: "c", Curve: flat(10), MinRanks: 1 << 62},
		}
		if _, err := Allocate(comps, 1000); err == nil {
			t.Fatal("minimums summing past math.MaxInt were accepted")
		}
	})
	t.Run("past-knee-at-minimum", func(t *testing.T) {
		// P50 far below the minimum allocation: an extra core only adds
		// overhead, so every core beyond the minimums must idle.
		comps := []Component{
			{Name: "saturated", Curve: &Curve{BaseCores: 1, BaseTime: 100, P50: 4, K: 2.5}, MinRanks: 50},
		}
		alloc, err := Allocate(comps, 500)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Cores[0] != 50 {
			t.Errorf("cores = %d, want the 50-rank minimum", alloc.Cores[0])
		}
		if alloc.Unallocated != 450 {
			t.Errorf("unallocated = %d, want 450", alloc.Unallocated)
		}
	})
}

// TestAllocateCopiesComponents: the returned Allocation must not alias
// the caller's slice — the serving cache retains allocations, and a
// caller reusing its scratch slice must not corrupt them.
func TestAllocateCopiesComponents(t *testing.T) {
	comps := []Component{
		{Name: "original", Curve: &Curve{BaseCores: 1, BaseTime: 10, P50: 1000, K: 1.2}},
	}
	alloc, err := Allocate(comps, 100)
	if err != nil {
		t.Fatal(err)
	}
	comps[0].Name = "mutated"
	comps[0].SizeRatio = 99
	if alloc.Components[0].Name != "original" || alloc.Components[0].SizeRatio != 0 {
		t.Errorf("Allocation.Components aliases the caller's slice: %+v", alloc.Components[0])
	}
}

// TestFitCurveKneeBelowBase: a component already past its 50%-efficiency
// knee at the smallest measured core count (P50 < BaseCores) must still
// be fittable — the P50 grid extends below the base core count.
func TestFitCurveKneeBelowBase(t *testing.T) {
	truth := Curve{BaseCores: 256, BaseTime: 80, P50: 100, K: 1.5}
	cores := []int{256, 512, 1024, 2048, 4096}
	fit, err := FitCurve(syntheticSamples(truth, cores, nil))
	if err != nil {
		t.Fatal(err)
	}
	if fit.P50 >= float64(truth.BaseCores) {
		t.Errorf("fitted P50 = %v, want below the %d-core base (truth %v)",
			fit.P50, truth.BaseCores, truth.P50)
	}
	for _, p := range []float64{300, 1000, 3000} {
		if RelativeError(fit.Runtime(p), truth.Runtime(p)) > 0.05 {
			t.Errorf("fit at %v cores: %v, want %v", p, fit.Runtime(p), truth.Runtime(p))
		}
	}
}
