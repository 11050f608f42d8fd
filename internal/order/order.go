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
