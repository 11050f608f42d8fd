// Package pressure implements the combustion pressure-solver proxy: a
// representative pressure-based LES combustion solver with the per-step
// structure of Fig. 2 — momentum and scalar transport, combustion source
// terms, a pressure-correction solve by AMG-preconditioned conjugate
// gradients, and a Lagrangian fuel-spray update. Every region is
// instrumented (trace) so the per-function compute/communication
// breakdown of Fig. 5 can be reproduced, and the Base/Optimized variants
// realise the Section IV optimisation study:
//
//	Base:      two-pass SpGEMM AMG setup, Jacobi smoothing, tentative
//	           interpolation, synchronous spatially-partitioned spray.
//	Optimized: SPA single-pass SpGEMM, hybrid Gauss-Seidel, PMIS +
//	           extended+i interpolation, identity-block transfer SpMV,
//	           async task-based spray off the critical path.
//
// The Optimized variant additionally charges pressure-field kernel work
// at the measured multi-core speedup of Park et al. [48] (the paper's 5x
// extrapolation) — the optimised algorithms really run; the constant maps
// their single-box costs to the production code's measured gains.
//
// Fixed settings are constants in pressure.go: the spray's droplets per
// cell and the PCG tolerance and iteration cap; the AMG numerics are
// amg's, and the CG loop is amg.CG over pressureSystem. Oracles:
// TestSharedSetupMatchesPerRankBuild (the shared operator and hierarchy
// against per-rank builds), TestFaceIndicesMatchesCellFace (the face
// walk against its per-axis loop), harness TestGoldenStandaloneRuntimes
// (both variants' virtual run-time, and a 512-rank point whose CG stops
// at its cap) and `make results` (the five pressure sweeps against
// results/).
package pressure
