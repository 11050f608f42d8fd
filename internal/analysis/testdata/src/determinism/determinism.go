// Package determinism exercises the determinism analyzer: host-clock
// reads, global math/rand draws, and order-dependent map iteration.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

func sink(args ...interface{}) {}

// ---- host clock -------------------------------------------------------------

func hostClock() {
	t0 := time.Now()        // want `time\.Now reads or schedules against the host clock`
	sink(time.Since(t0))    // want `time\.Since reads or schedules against the host clock`
	time.Sleep(time.Second) // want `time\.Sleep reads or schedules against the host clock`
}

func allowedHostClock() {
	// The deadlock watchdog legitimately runs on the host clock.
	t := time.Now() //lint:allow determinism watchdog runs on host time by design
	sink(t)
}

func timeValuesAreFine(t time.Time) {
	// Methods and constructors that do not observe the clock are fine.
	sink(t.Unix(), time.Unix(0, 0), time.Duration(5))
}

// ---- global rand ------------------------------------------------------------

func globalRand() {
	sink(rand.Intn(10))    // want `rand\.Intn draws from the process-global generator`
	sink(rand.Float64())   // want `rand\.Float64 draws from the process-global generator`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle draws from the process-global generator`
}

func seededRand(seed int64) {
	rng := rand.New(rand.NewSource(seed)) // constructors are allowed
	sink(rng.Intn(10), rng.Float64())     // methods on a seeded *rand.Rand are fine
}

// ---- map iteration order ----------------------------------------------------

func mapOrderLeaks(m map[int]float64, out []float64, ch chan float64) {
	var results []float64
	for _, v := range m {
		results = append(results, v) // want `append to results inside map iteration records results in map order`
	}
	for k, v := range m {
		out[k%2] = v // want `write to out\[\.\.\.\] inside map iteration depends on map order`
	}
	for _, v := range m {
		ch <- v // want `channel send inside map iteration publishes results in map order`
	}
	sink(results)
}

func collectKeysIdiom(m map[int]float64) []int {
	// The first half of the sorted-iteration fix is exempt when the slice
	// is handed back: the caller's loop over it is checked in its turn.
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func collectKeysThenSort(m map[int]float64, send func(int)) {
	// ... and when the function sorts what it collected before using it.
	var dests []int
	for d := range m {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		send(d)
	}
}

func collectKeysNeverSorted(m map[int]float64, send func(int)) {
	// Collecting is only half the fix: with no sort in sight the sends
	// below still go out in map order.
	var dests []int
	for d := range m {
		dests = append(dests, d) // want `append to dests inside map iteration records results in map order`
	}
	for _, d := range dests {
		send(d)
	}
}

func orderIndependent(m map[int]float64) map[int]float64 {
	// Keyed writes and loop-local state do not depend on iteration order.
	dst := make(map[int]float64, len(m))
	for k, v := range m {
		scaled := v * 2
		dst[k] = scaled
	}
	return dst
}

func suppressedMapOrder(m map[int]float64) []float64 {
	var vals []float64
	for _, v := range m {
		//lint:allow determinism values are re-sorted by the caller
		vals = append(vals, v)
	}
	return vals
}
