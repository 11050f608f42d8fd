// Package telemetry is the live-observability layer of the virtual-time
// runtime: per-rank metrics sampled at fixed *virtual-time* intervals,
// and the export schema (RankTail) of the flight-recorder tails a failed
// run dumps.
//
// Determinism is the design constraint. Every sample point is derived
// from the rank's virtual clock — never the host clock — and the
// collector only *observes* charges the runtime was already making: it
// keeps separate accumulators and never modifies the existing clock or
// accounting arithmetic.
//
// Mailbox depth is the one gauge a naive implementation would make
// host-scheduling-dependent (the instantaneous length of a mailbox
// depends on which goroutine ran first). It is instead defined purely in
// virtual time: depth at sample point kΔ is the number of messages whose
// virtual *arrival* is <= kΔ minus the number of receives the rank had
// *completed* by kΔ. Both timestamps are known to the receiver when a
// receive completes (completion is always >= arrival, so the gauge is
// never negative), so arrivals are bucketed receiver-side into one dense
// per-rank array — no cross-rank merge, no per-message storage. The one
// consequence: a message that is never received does not enter the
// gauge, making it the depth of the eventually-consumed queue.
//
// Invariant: metrics on or off, a run's clocks, statistics and traces are
// bitwise identical, and its series do not depend on host parallelism.
// Oracles: TestMetricsDoNotPerturbRun and
// TestMetricsSeriesIdenticalAcrossHostParallelism (internal/mpi),
// TestCoupledMetricsRunIdenticalAcrossHostParallelism (internal/coupler)
// and TestFinalizeMailboxDepth. The CSV export is held byte for byte to
// its old fmt body by TestWriteCSVMatchesReference{,OnCoupledRun}, and
// reads back through encoding/csv by TestWriteCSVQuotesComponentLabels.
package telemetry
