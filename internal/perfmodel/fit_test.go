package perfmodel

import (
	"encoding/binary"
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

// fitGridKs is FitCurve's grid of K values.
var fitGridKs = []float64{0.5, 0.8, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0}

// randomSamples draws 2–8 samples: core counts from a small ladder, so
// that some sets repeat a count (the base count among them), with
// run-times from a seeded curve under noise or, now and then, drawn
// with no curve at all. One set in five lies exactly on a curve whose
// K and P50 are points of FitCurve's grid, anchored at the smallest
// count with a whole-second base time, so one grid candidate has zero
// error (and every candidate does when the set has one core count):
// the strict tie rule decides those. One in five repeats its largest
// count, the sample whose term the cost screens with.
func randomSamples(rng *rand.Rand) []Sample {
	truth := Curve{BaseCores: 1, BaseTime: 1 + 100*rng.Float64(), P50: math.Exp(2 + 8*rng.Float64()), K: 0.5 + 2.5*rng.Float64()}
	ss := make([]Sample, 2+rng.Intn(7))
	lo, hi := 0, 0
	for i := range ss {
		p := 1 << rng.Intn(14)
		if rng.Intn(3) == 0 {
			p += rng.Intn(p)
		}
		ss[i].Cores = p
		if p < ss[lo].Cores {
			lo = i
		}
		if p > ss[hi].Cores {
			hi = i
		}
	}
	shape := rng.Intn(5)
	switch shape {
	case 0:
		base := ss[lo].Cores
		truth = Curve{BaseCores: base, BaseTime: float64(1 + rng.Intn(100)), P50: math.Max(float64(base)/64, 0.5), K: fitGridKs[rng.Intn(len(fitGridKs))]}
		for j := rng.Intn(40); j > 0; j-- {
			truth.P50 *= 1.15
		}
	case 1:
		ss[(hi+1+rng.Intn(len(ss)-1))%len(ss)].Cores = ss[hi].Cores
	}
	for i := range ss {
		rt := truth.Runtime(float64(ss[i].Cores))
		if shape != 0 {
			rt *= 1 + 0.1*rng.NormFloat64()
			if rng.Intn(10) == 0 || rt <= 0 {
				rt = math.Exp(10 * rng.Float64())
			}
		}
		ss[i].Runtime = rt
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

// referenceCost is fitCost.at before it took a bound: the full sum of
// every sample's term, in sample order.
func referenceCost(f *fitCost, p50, k float64) float64 {
	gBase := gval(f.baseCores, p50, k)
	e := 0.0
	for i, s := range f.ss {
		p := float64(s.Cores)
		d := math.Log(f.baseWork/(p*(gval(p, p50, k)/gBase))) - f.logs[i]
		e += d * d
	}
	return e
}

// TestFitCostPrunesExactly is the oracle of the bounded cost: on the
// 1,000 seeded sets, at every grid candidate and its four descent
// neighbours (P50 or K times 0.97 or 1.03), under a bound drawn per
// candidate from +Inf, 0, the full cost, the floats either side of it
// and a random value, a cost below its bound comes back with the same
// bits and any other comes back not below the bound — so FitCurve's
// strict `e < bestE` decides every candidate as the full sum would.
func TestFitCostPrunesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zeros, checked := 0, 0
	for set := 0; set < 1000; set++ {
		ss := randomSamples(rng)
		sort.Slice(ss, func(a, b int) bool { return ss[a].Cores < ss[b].Cores })
		cost := newFitCost(ss)
		gridLo := math.Max(float64(ss[0].Cores)/64, 0.5)
		maxCores := float64(ss[len(ss)-1].Cores)
		for _, k := range fitGridKs {
			for p50 := gridLo; p50 <= maxCores*100; p50 *= 1.15 {
				for _, c := range [][2]float64{{p50, k}, {p50 * 0.97, k}, {p50 * 1.03, k}, {p50, k * 0.97}, {p50, k * 1.03}} {
					want := referenceCost(&cost, c[0], c[1])
					if want == 0 {
						zeros++
					}
					bound := [...]float64{math.Inf(1), 0, want, math.Nextafter(want, math.Inf(1)),
						math.Nextafter(want, math.Inf(-1)), want * 4 * rng.Float64()}[rng.Intn(6)]
					got := cost.at(c[0], c[1], bound)
					if want < bound && math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("set %d %v at (%v, %v) bound %v: cost %v, full sum %v", set, ss, c[0], c[1], bound, got, want)
					}
					if !(want < bound) && got < bound {
						t.Fatalf("set %d %v at (%v, %v) bound %v: cost %v below the bound, full sum %v", set, ss, c[0], c[1], bound, got, want)
					}
					checked++
				}
			}
		}
	}
	if zeros == 0 {
		t.Errorf("no candidate of zero cost in %d checks, want the on-curve sets to meet some", checked)
	}
}

// fuzzSamples decodes data into 2–8 samples: a count byte, then 12 bytes
// a sample — cores in [1, 2^20] from a uint32 and the run-time from a
// float64's bits with the sign cleared, Inf and NaN moved to the largest
// finite exponent and zero to the smallest subnormal.
func fuzzSamples(data []byte) ([]Sample, bool) {
	if len(data) == 0 {
		return nil, false
	}
	n := 2 + int(data[0])%7
	data = data[1:]
	if len(data) < 12*n {
		return nil, false
	}
	ss := make([]Sample, n)
	for i := range ss {
		bits := binary.LittleEndian.Uint64(data[12*i+4:]) &^ (1 << 63)
		if bits >= 0x7FF0_0000_0000_0000 {
			bits &^= 1 << 52
		}
		if bits == 0 {
			bits = 1
		}
		ss[i] = Sample{Cores: int(binary.LittleEndian.Uint32(data[12*i:])%(1<<20)) + 1, Runtime: math.Float64frombits(bits)}
	}
	return ss, true
}

// FuzzFitCurve: on any 2–8 samples with finite positive run-times,
// subnormal and huge ones included, FitCurve returns the curve
// referenceFitCurve returns, bit for bit, or both reject the set. The
// corpus is seeded from randomSamples.
func FuzzFitCurve(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		ss := randomSamples(rng)
		data := []byte{byte(len(ss) - 2)}
		for _, s := range ss {
			data = binary.LittleEndian.AppendUint32(data, uint32(s.Cores-1))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(s.Runtime))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, ok := fuzzSamples(data)
		if !ok {
			return
		}
		got, err := FitCurve(ss)
		want, werr := referenceFitCurve(ss)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%v: FitCurve error %v, reference error %v", ss, err, werr)
		}
		if err == nil && (got.BaseCores != want.BaseCores || math.Float64bits(got.BaseTime) != math.Float64bits(want.BaseTime) ||
			math.Float64bits(got.P50) != math.Float64bits(want.P50) || math.Float64bits(got.K) != math.Float64bits(want.K)) {
			t.Fatalf("%v: FitCurve %+v, reference %+v", ss, *got, *want)
		}
	})
}
