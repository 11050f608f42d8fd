package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (rank = p/100·(n−1)), so the
// median of two values is their mean. It returns NaN for an empty
// slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) — the rule the acceptance driver applies
// to ten runs — so a spread computed here and there agree. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise figure every bound is compared against. Fewer
// than two values have no measurable spread and report 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// fold32 folds 64-bit words into one 32-bit digest (FNV-1a over the
// little-endian bytes). It stands in for "are the simulated results
// bit-identical" in a single comparable number.
func fold32(h uint32, words ...uint64) uint32 {
	if h == 0 {
		h = 2166136261
	}
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= uint32(w >> (8 * i) & 0xff)
			h *= 16777619
		}
	}
	return h
}
