// Package mpi is an in-process, virtual-time message-passing runtime with
// MPI-like semantics. It stands in for the MPI library the paper's
// mini-apps use on ARCHER2 (see DESIGN.md §2): point-to-point messages
// and collectives move real data, and every rank carries a logical clock
// that advances through modelled compute time and through message
// causality. Every rank runs as one goroutine.
//
// Timing model (conservative logical-clock PDES):
//
//   - Comm.Compute charges cluster-modelled seconds to the rank clock.
//   - Send charges the sender a per-message CPU overhead; the message is
//     stamped with a virtual arrival time = departure + network delay from
//     the cluster model (Hockney alpha-beta with intra/inter-node terms).
//   - Recv blocks (in host time) until a matching message exists, then
//     advances the rank clock to max(clock, arrival) + receive overhead.
//     The jump is accounted as communication/wait time.
//
// The simulated run-time of a program is the maximum rank clock at exit.
// Sends are eager and buffered (no rendezvous), so any communication
// pattern that is deadlock-free under buffered MPI semantics is
// deadlock-free here. Matching is FIFO per (communicator, source, tag),
// which preserves MPI's non-overtaking rule.
//
// Invariant: clocks, results and every recorded view (recorder.go) are
// a function of the program, size and fault plan alone — not of host
// parallelism, collective path or which views are on. Oracles:
// Test{,Fault}ReplayMatchesMessageLevelReference,
// TestTraceIdenticalAcrossHostParallelism, TestMetricsDoNotPerturbRun
// and TestFlightTailsGolden.
package mpi
