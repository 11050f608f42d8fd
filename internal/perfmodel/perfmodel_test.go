package perfmodel

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// syntheticSamples generates runtimes from a known curve with optional
// multiplicative noise factors.
func syntheticSamples(c Curve, cores []int, noise []float64) []Sample {
	out := make([]Sample, len(cores))
	for i, p := range cores {
		f := 1.0
		if noise != nil {
			f = noise[i]
		}
		out[i] = Sample{Cores: p, Runtime: c.Runtime(float64(p)) * f}
	}
	return out
}

func TestCurveBasics(t *testing.T) {
	c := Curve{BaseCores: 128, BaseTime: 100, P50: 3000, K: 1.5}
	if pe := c.PE(128); math.Abs(pe-1) > 1e-12 {
		t.Errorf("PE(base) = %v, want 1", pe)
	}
	// PE is monotone decreasing.
	prev := 1.0
	for p := 256.0; p <= 40000; p *= 2 {
		pe := c.PE(p)
		if pe >= prev {
			t.Fatalf("PE not decreasing at %v: %v >= %v", p, pe, prev)
		}
		prev = pe
	}
	// Runtime decreases then flattens; speedup bounded.
	if !(c.Runtime(256) < c.Runtime(128)) {
		t.Error("doubling cores near base should cut runtime")
	}
	if c.Speedup(128) != 1 {
		t.Error("speedup at base != 1")
	}
	if c.PE(0) != 0 || !math.IsInf(c.Runtime(0), 1) {
		t.Error("degenerate p=0 not handled")
	}
}

func TestFitCurveRecoversTruth(t *testing.T) {
	truth := Curve{BaseCores: 128, BaseTime: 50, P50: 2500, K: 1.4}
	cores := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	fit, err := FitCurve(syntheticSamples(truth, cores, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{300, 1000, 3000, 10000} {
		want := truth.Runtime(p)
		got := fit.Runtime(p)
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("fit at %v cores: %v, want %v", p, got, want)
		}
	}
}

func TestFitCurveWithNoise(t *testing.T) {
	truth := Curve{BaseCores: 64, BaseTime: 20, P50: 900, K: 1.1}
	cores := []int{64, 128, 256, 512, 1024, 2048}
	noise := []float64{1.02, 0.97, 1.05, 0.95, 1.03, 0.98}
	fit, err := FitCurve(syntheticSamples(truth, cores, noise))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{200, 800, 1600} {
		if RelativeError(fit.Runtime(p), truth.Runtime(p)) > 0.2 {
			t.Errorf("noisy fit at %v: %v vs %v", p, fit.Runtime(p), truth.Runtime(p))
		}
	}
}

func TestFitCurveRejectsBadInput(t *testing.T) {
	if _, err := FitCurve([]Sample{{128, 1}}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := FitCurve([]Sample{{128, 1}, {256, -1}}); err == nil {
		t.Error("negative runtime accepted")
	}
	if _, err := FitCurve([]Sample{{0, 1}, {256, 1}}); err == nil {
		t.Error("zero cores accepted")
	}
	// A NaN or infinite run-time made every candidate's cost NaN or
	// +Inf, and FitCurve returned its seed curve with no error.
	for _, rt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		_, err := FitCurve([]Sample{{100, 10}, {200, rt}, {400, 3}})
		if err == nil || !strings.Contains(err.Error(), "sample 1 ") {
			t.Errorf("run-time %v: error %v, want one naming sample 1", rt, err)
		}
	}
}

func TestComponentScaling(t *testing.T) {
	c := &Curve{BaseCores: 100, BaseTime: 10, P50: 1e6, K: 1}
	cp := Component{Curve: c, SizeRatio: 3, IterRatio: 10}
	// At base cores: 10 * 3 * 10 = 300 (PE ~ 1 with huge P50).
	if tm := cp.Time(100); math.Abs(tm-300) > 1 {
		t.Errorf("scaled time %v, want ~300", tm)
	}
	// Zero ratios default to 1.
	cp2 := Component{Curve: c}
	if tm := cp2.Time(100); math.Abs(tm-10) > 0.1 {
		t.Errorf("unscaled time %v, want ~10", tm)
	}
}

func TestAllocateBalancesLoad(t *testing.T) {
	mk := func(base float64) *Curve {
		return &Curve{BaseCores: 1, BaseTime: base, P50: 1e7, K: 1}
	}
	comps := []Component{
		{Name: "small", Curve: mk(10)},
		{Name: "big", Curve: mk(100)},
		{Name: "cu", Curve: mk(1), IsCU: true},
	}
	alloc, err := Allocate(comps, 222)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range alloc.Cores {
		total += c
	}
	if total != 222 {
		t.Fatalf("allocated %d cores, budget 222", total)
	}
	// The big instance must get roughly 10x the small one's cores
	// (perfect-scaling curves -> proportional allocation).
	ratio := float64(alloc.Cores[1]) / float64(alloc.Cores[0])
	if ratio < 5 || ratio > 20 {
		t.Errorf("big/small core ratio %v, want ~10", ratio)
	}
	// Final times nearly equal across instances (balanced).
	if RelativeError(alloc.Times[0], alloc.Times[1]) > 0.3 {
		t.Errorf("unbalanced times %v vs %v", alloc.Times[0], alloc.Times[1])
	}
	if alloc.Predicted != alloc.MaxApp+alloc.MaxCU {
		t.Error("prediction != maxApp + maxCU")
	}
}

func TestAllocateRespectsMinRanks(t *testing.T) {
	c := &Curve{BaseCores: 1, BaseTime: 1, P50: 1e6, K: 1}
	comps := []Component{
		{Name: "a", Curve: c, MinRanks: 100},
		{Name: "b", Curve: c, MinRanks: 50},
	}
	alloc, err := Allocate(comps, 200)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Cores[0] < 100 || alloc.Cores[1] < 50 {
		t.Errorf("min ranks violated: %v", alloc.Cores)
	}
	if _, err := Allocate(comps, 100); err == nil {
		t.Error("budget below minimum allocations accepted")
	}
}

func TestAllocateStopsAtPEPlateau(t *testing.T) {
	// One instance with an early knee: once past the point where a core
	// buys nothing (its time would grow), the loop must stop and idle the
	// rest of the budget — the paper's Fig. 9b allocations sum to well
	// under the 40,000-core budget for this reason.
	comps := []Component{
		{Name: "kneed", Curve: &Curve{BaseCores: 1, BaseTime: 100, P50: 50, K: 2}},
		{Name: "scaler", Curve: &Curve{BaseCores: 1, BaseTime: 100, P50: 1e7, K: 1}},
	}
	alloc, err := Allocate(comps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Unallocated == 0 {
		t.Error("expected idle cores once the knee component saturates")
	}
	// The kneed instance must stop near its optimum (~P50), not absorb
	// the whole budget.
	if alloc.Cores[0] > 200 {
		t.Errorf("kneed instance got %d cores; should saturate near its knee", alloc.Cores[0])
	}
	total := alloc.Cores[0] + alloc.Cores[1] + alloc.Unallocated
	if total != 2000 {
		t.Errorf("cores + unallocated = %d, want 2000", total)
	}
}

func TestAllocateEmptyErrors(t *testing.T) {
	if _, err := Allocate(nil, 100); err == nil {
		t.Error("empty component list accepted")
	}
}

func TestPredictSpeedup(t *testing.T) {
	a := &Allocation{Predicted: 100}
	b := &Allocation{Predicted: 25}
	if s := PredictSpeedup(a, b); s != 4 {
		t.Errorf("speedup %v, want 4", s)
	}
}

func TestRelativeError(t *testing.T) {
	if e := RelativeError(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("error %v, want 0.1", e)
	}
	if e := RelativeError(90, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("error %v, want 0.1", e)
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("zero actual should give +Inf")
	}
}

func TestAllocationString(t *testing.T) {
	c := &Curve{BaseCores: 1, BaseTime: 1, P50: 100, K: 1}
	alloc, err := Allocate([]Component{{Name: "x", Curve: c}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s := alloc.String(); len(s) == 0 {
		t.Error("empty table")
	}
}

// Property: allocation never exceeds the budget and times stay positive.
func TestAllocateBudgetProperty(t *testing.T) {
	f := func(b uint16, n uint8) bool {
		budget := int(b)%5000 + 10
		k := int(n)%5 + 1
		comps := make([]Component, k)
		for i := range comps {
			comps[i] = Component{
				Name:  "c",
				Curve: &Curve{BaseCores: 1, BaseTime: float64(i + 1), P50: 500, K: 1.2},
				IsCU:  i%2 == 1,
			}
		}
		if budget < k {
			return true
		}
		alloc, err := Allocate(comps, budget)
		if err != nil {
			return false
		}
		total := alloc.Unallocated
		for i, c := range alloc.Cores {
			if c < 1 || alloc.Times[i] <= 0 {
				return false
			}
			total += c
		}
		return total == budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCurveJSONRoundTrip(t *testing.T) {
	// Curves round-trip through plain JSON, so a fitted curve can be
	// saved and reloaded.
	c := &Curve{BaseCores: 128, BaseTime: 42.5, P50: 3100, K: 1.35}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != *c {
		t.Errorf("round trip changed curve: %+v vs %+v", back, *c)
	}
	for _, p := range []float64{128, 1000, 10000} {
		if back.Runtime(p) != c.Runtime(p) {
			t.Errorf("runtime differs after round trip at %v", p)
		}
	}
}
