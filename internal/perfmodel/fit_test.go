package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceFitCurve is FitCurve before its cost loop hoisted the base
// core count's g value and the samples' log-runtimes: each cost
// evaluation builds a Curve and calls Runtime per sample, which
// recomputes both. FitCurve must return the same curve bit for bit.
func referenceFitCurve(samples []Sample) (*Curve, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("perfmodel: need at least 2 samples, got %d", len(samples))
	}
	ss := make([]Sample, len(samples))
	copy(ss, samples)
	sort.Slice(ss, func(a, b int) bool { return ss[a].Cores < ss[b].Cores })
	for _, s := range ss {
		if s.Cores <= 0 || s.Runtime <= 0 {
			return nil, fmt.Errorf("perfmodel: non-positive sample %+v", s)
		}
	}
	base := ss[0]
	maxCores := float64(ss[len(ss)-1].Cores)

	cost := func(p50, k float64) float64 {
		c := Curve{BaseCores: base.Cores, BaseTime: base.Runtime, P50: p50, K: k}
		e := 0.0
		for _, s := range ss {
			d := math.Log(c.Runtime(float64(s.Cores))) - math.Log(s.Runtime)
			e += d * d
		}
		return e
	}
	bestP50, bestK, bestE := maxCores, 1.0, math.Inf(1)
	gridLo := float64(base.Cores) / 64
	if gridLo < 0.5 {
		gridLo = 0.5
	}
	for _, k := range []float64{0.5, 0.8, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0} {
		p50 := gridLo
		for p50 <= maxCores*100 {
			if e := cost(p50, k); e < bestE {
				bestE, bestP50, bestK = e, p50, k
			}
			p50 *= 1.15
		}
	}
	for iter := 0; iter < 40; iter++ {
		improved := false
		for _, f := range []float64{0.97, 1.03} {
			if e := cost(bestP50*f, bestK); e < bestE {
				bestE, bestP50, improved = e, bestP50*f, true
			}
			if e := cost(bestP50, bestK*f); e < bestE && bestK*f > 0.1 {
				bestE, bestK, improved = e, bestK*f, true
			}
		}
		if !improved {
			break
		}
	}
	return &Curve{BaseCores: base.Cores, BaseTime: base.Runtime, P50: bestP50, K: bestK}, nil
}

// randomSamples draws 2–8 samples: core counts from a small ladder, so
// that some sets repeat a count (the base count among them), with
// run-times from a seeded curve under noise or, now and then, drawn
// with no curve at all.
func randomSamples(rng *rand.Rand) []Sample {
	truth := Curve{BaseCores: 1, BaseTime: 1 + 100*rng.Float64(), P50: math.Exp(2 + 8*rng.Float64()), K: 0.5 + 2.5*rng.Float64()}
	ss := make([]Sample, 2+rng.Intn(7))
	for i := range ss {
		p := 1 << rng.Intn(14)
		if rng.Intn(3) == 0 {
			p += rng.Intn(p)
		}
		rt := truth.Runtime(float64(p)) * (1 + 0.1*rng.NormFloat64())
		if rng.Intn(10) == 0 || rt <= 0 {
			rt = math.Exp(10 * rng.Float64())
		}
		ss[i] = Sample{Cores: p, Runtime: rt}
	}
	return ss
}

// TestFitCurveMatchesReference is FitCurve's oracle: on 1,000 seeded
// sample sets it returns the curve referenceFitCurve returns, bit for
// bit, duplicate core counts included.
func TestFitCurveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dups := 0
	for set := 0; set < 1000; set++ {
		ss := randomSamples(rng)
		seen := map[int]bool{}
		for _, s := range ss {
			if seen[s.Cores] {
				dups++
				break
			}
			seen[s.Cores] = true
		}
		got, err := FitCurve(ss)
		if err != nil {
			t.Fatalf("set %d %v: %v", set, ss, err)
		}
		want, err := referenceFitCurve(ss)
		if err != nil {
			t.Fatalf("set %d %v: reference: %v", set, ss, err)
		}
		if got.BaseCores != want.BaseCores || math.Float64bits(got.BaseTime) != math.Float64bits(want.BaseTime) ||
			math.Float64bits(got.P50) != math.Float64bits(want.P50) || math.Float64bits(got.K) != math.Float64bits(want.K) {
			t.Fatalf("set %d %v: FitCurve %+v, reference %+v", set, ss, *got, *want)
		}
	}
	if dups < 100 {
		t.Errorf("%d of 1000 sets repeat a core count, want at least 100", dups)
	}
}
