// Package simpic implements the SIMPIC mini-app: a 1-D electrostatic
// particle-in-cell code (Sandia National Laboratories [17], [35]) that the
// paper uses as a black-box *performance proxy* for the production
// combustion pressure solver. Each time-step deposits particle charge to
// the grid (cloud-in-cell), solves the 1-D Poisson equation for the
// potential with a substructured parallel tridiagonal solver, gathers the
// electric field back to the particles, and pushes them with a leapfrog
// integrator — the synchronous Lagrangian-Eulerian pattern of Fig. 2.
//
// The paper's test-case configurations (Fig. 3) far exceed what can be
// held in memory (up to 7e10 particles); ScaleOpts lets a run execute a
// representative per-rank slice and a sample of the time-steps while the
// virtual-time costs are charged for the full configuration.
//
// The fixed physics (domain length, thermal velocity, time-step scale)
// and PressureStepsEquivalent are constants in config.go.
//
// Invariant: a rank's field state is its potential and one charge
// window; the segment factors are a pure function of the segment length,
// built once per run for each length and never written after (mpi.Shared,
// DESIGN.md §5.12), and the window carries each field step from charge to
// E field (§5.13). Oracles: TestGoldenStateDigests (state digests at 1,
// 2 and 8 ranks across a checkpoint restore, on segments of two lengths,
// and with both ScaleOpts caps binding across a mid-sub-cycle restore),
// TestSolveSegmentMatchesThomasBitwise, and TestSetUpAllocation in
// internal/harness (set-up bytes per rank); `make test-race-short`
// proves the shared factors are never written.
package simpic
