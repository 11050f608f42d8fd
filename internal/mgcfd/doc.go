// Package mgcfd implements the MG-CFD mini-app [16]: an edge-based,
// unstructured finite-volume Euler solver with geometric multigrid, the
// performance proxy for the production density solver (Rolls-Royce
// Hydra) of the compressor and turbine rows. A time-step runs
// Runge-Kutta stages of the edge-loop flux, a halo exchange with every
// block neighbour, a multigrid cascade and a residual allreduce.
//
// Invariant: a run's fields and clocks are a function of its
// configuration alone, bit for bit. Compute is charged for the true
// per-rank box, halo messages for the true faces (DESIGN.md §5.2). No
// clock reads a field, so Time, the standalone runs' entry point, runs
// Step's one schedule on ranks that hold none: the same charges,
// messages (with no payload) and residual allreduce, with the
// arithmetic skipped. Oracles: TestTimeMatchesRun (Time's mpi.Stats
// deeply equal to Run's with profiles and traces on, on one rank, idle
// ranks, unequal capped boxes, sampled runs and one to four levels),
// TestComputeFluxMatchesReference (the fused flux-and-update
// stage against its per-variable edge-list loop followed by the
// node-wise update, q and residual sum bit for bit, on cubes, slabs,
// pencils and one-node-thick boxes), TestGoldenResidual (Run's residual
// norm on 1 and 6 ranks, recorded before the fusion),
// TestRestrictMatchesReference, TestProlongMatchesReference and
// TestExchangeHaloMatchesReference (the row-wise transfers and the halo
// exchange against their per-node bodies), TestSharedSetupMatchesPerRankBuild
// (shared face lists against per-rank builds), TestFaceIndicesMatchesFaceNodes
// (mesh's face walk on node dims against its per-axis loop) and
// TestDeterministic.
package mgcfd
