// Package trace is the virtual-time profiler, the role ARM MAP plays in
// the paper: per-region compute/communication profiles (Fig. 5), per-rank
// event timelines, the comm matrix and the critical path, and their
// exports (Chrome trace, CSV, JSON summary). A Profile or Timeline is
// owned by one rank and read only after the run.
//
// Invariant: every export's bytes are a pure function of the run's
// mpi.Stats. Oracles: TestWriteChromeTraceMatchesReference{,OnCoupledRun}
// and FuzzWriteChromeTrace (the streaming encoder against encoding/json),
// and TestDemoArtifactsPinned (cmd/cpxsim) on the exported files.
package trace
