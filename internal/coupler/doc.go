// Package coupler implements CPX, the mini-coupler of the paper [13]:
// coupling units (CUs) that move boundary data between solver instances.
// Sliding-plane interactions (density-density) recompute the donor
// mapping every exchange because the rotor rows move relative to the
// stators; steady-state interactions (density-pressure) compute it once.
// Three search strategies reproduce the paper's progression: brute force,
// a k-d tree, and the tree with donor prefetching from the previous
// exchange — the optimisation that cut coupling overhead to <0.5% of
// run-time in the production coupler [31].
//
// Invariant: the search strategy changes the cost charged, never the
// donor distances found, and a coupled run's every figure is independent
// of host parallelism, tracing and checkpoint restarts. Oracles:
// TestMapperStrategiesAgreeOnDonors and TestKDTreeMatchesBruteForce,
// TestGoldenCoupledDigests, TestCoupledTraceRunIdenticalAcrossHostParallelism
// and TestCoupledRestartOfEveryKind.
package coupler
