// Package fault is the deterministic fault model of the virtual-time
// runtime (DESIGN.md §7). A Plan schedules three failure classes against
// virtual time:
//
//   - rank crashes: a rank's clock can never pass its crash timestamp;
//     the runtime kills the rank the moment a charge would cross it.
//   - straggler nodes: per-node compute-rate multipliers over virtual-time
//     windows, stretching every compute charge that overlaps a window.
//   - degraded links: per-epoch multipliers on the Hockney alpha/beta
//     terms of messages departing inside the epoch.
//
// Plans are immutable once handed to a run.
//
// The package also holds the checkpoint side (checkpoint.go): the State
// walk through which a solver lists its recoverable fields once, to save,
// restore and hash them; the Store where ranks commit their snapshots;
// and the rank-failure errors the mpi runtime surfaces ULFM-style. It
// imports only cluster, so mpi can depend on it without a cycle.
//
// Invariant: failure times are a pure function of (plan, machine model),
// and which checkpoint commits is a function of the ranks' commits, not
// of the order the rank goroutines make them; a save → restore walk
// puts back every field bit for bit, so a restarted run ends in the
// fault-free run's state. Oracles: TestNewPlanDeterministic,
// TestStoreCommitIgnoresHostOrder, TestStateRoundTripIsBitExact and, end
// to end, TestCoupledRestartOfEveryKind and TestDifferentialResilience
// (internal/coupler).
package fault
