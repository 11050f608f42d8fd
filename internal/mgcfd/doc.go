// Package mgcfd implements the MG-CFD mini-app [16]: an edge-based,
// unstructured finite-volume Euler solver with geometric multigrid, the
// performance proxy for the production density solver (Rolls-Royce
// Hydra) of the compressor and turbine rows. A time-step runs
// Runge-Kutta stages of the edge-loop flux, a halo exchange with every
// block neighbour, a multigrid cascade and a residual allreduce.
//
// Invariant: a run's fields and clocks are a function of its
// configuration alone, bit for bit. Compute is charged for the true
// per-rank box, halo messages for the true faces (DESIGN.md §5.2).
// Oracles: TestComputeFluxMatchesReference (the flux kernel against its
// per-variable loop), TestSharedSetupMatchesPerRankBuild (shared edge
// and face lists against per-rank builds) and TestDeterministic.
package mgcfd
