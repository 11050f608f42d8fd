// Package analysis is a self-contained static-analysis suite enforcing
// the invariants the virtual-time runtime's headline guarantees rest on:
// bitwise-identical per-rank clocks, GOMAXPROCS-independent schedules and
// reproducible solver output. It mirrors the golang.org/x/tools
// go/analysis architecture (Analyzer, Pass, diagnostics, testdata-driven
// fixtures) but is built purely on the standard library's go/ast and
// go/types so the module stays dependency-free.
//
// Five analyzers ship with the suite; each of the first four stayed
// because a seeded violation showed it names a fault sooner or more
// precisely than the tests do (ROADMAP "Legible" (3) has the audit), and
// unused keeps the module free of code that only tests run:
//
//   - determinism: no host wall-clock or timers, no process-seeded
//     math/rand, no map-iteration order leaking into results inside the
//     simulation-critical packages.
//   - mpiuse: no collectives lexically inside rank-conditioned branches
//     (deadlock/mismatch).
//   - floatreduce: no float accumulation in map- or goroutine-order.
//   - hotalloc: no new heap-allocating construct in //perf:hotpath code.
//   - unused: no package-level declaration that no non-test file of the
//     module uses (UsedObjects, computed once over the whole module).
//
// Check runs all five over a module; TestModuleLintsClean makes a
// finding a tier-1 failure, and `make lint` runs that test alone to
// print the result. Host-time cost is not a lint rule: the benchmark
// (`go run ./bench`) is its one gate.
//
// A diagnostic is silenced with a reviewed suppression comment on the
// same line or the line above:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory; Check reports bare suppressions as findings.
//
// Invariant: the module has no unsuppressed finding, and each analyzer
// flags its seeded fixture violations and nothing else. Oracles:
// TestModuleLintsClean over the module; TestDeterminism, TestMPIUse,
// TestFloatReduce, TestHotAlloc and TestUnused over the testdata fixtures.
package analysis
