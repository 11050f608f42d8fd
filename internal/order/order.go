// Package order provides deterministic iteration helpers for the
// simulation-critical packages. Go randomises map iteration order on
// purpose; any loop whose side effects depend on that order (appending
// results, accumulating floats, sending messages) makes per-rank virtual
// clocks and solver output depend on the host scheduler. The
// determinism and floatreduce analyzers (internal/analysis) flag such
// loops and point here: collect the keys, sort them, then iterate.
package order

import (
	"cmp"
	"slices"
)

// SortedKeys returns the keys of m in ascending order. Use it to replace
// `for k, v := range m` with `for _, k := range order.SortedKeys(m)`
// wherever the loop's effects must not depend on map iteration order.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SumSorted accumulates the values of m in ascending key order, giving a
// reproducible floating-point reduction over map-held data.
func SumSorted[M ~map[K]float64, K cmp.Ordered](m M) float64 {
	s := 0.0
	for _, k := range SortedKeys(m) {
		s += m[k]
	}
	return s
}
