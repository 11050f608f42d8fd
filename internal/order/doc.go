// Package order provides deterministic iteration helpers for the
// simulation-critical packages. Go randomises map iteration order on
// purpose; any loop whose side effects depend on that order (appending
// results, accumulating floats, sending messages) makes per-rank virtual
// clocks and solver output depend on the host scheduler. The
// determinism and floatreduce analyzers (internal/analysis) flag such
// loops and point here: collect the keys, sort them, then iterate.
//
// Invariant: SortedKeys' result depends on the map's contents only, never
// on its iteration order, so a floating-point reduction over a map that
// iterates it gives the same bits on every run. Oracle: TestSortedKeys.
package order
