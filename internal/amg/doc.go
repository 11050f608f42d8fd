// Package amg implements the algebraic-multigrid stack that Section IV of
// the paper analyses and optimises: strength-of-connection graphs,
// aggregation and PMIS coarsening, direct and extended+i (distance-two)
// interpolation, Jacobi / Gauss-Seidel / hybrid Gauss-Seidel smoothers,
// V-cycles and Krylov-accelerated K-cycles, the Galerkin triple product
// built on the sparse SpGEMM kernels, and AMG-preconditioned conjugate
// gradients — both serial and distributed over the mpi runtime.
//
// Options picks the algorithms of a variant; every numeric setting
// (strength threshold, sweeps, Jacobi and smoothing weights, depth,
// coarsest size, hybrid blocks) is one constant in hierarchy.go, shared
// by all variants. Oracles: TestGoldenIterates (the bit patterns of
// Solve and PCG over the smoother x cycle matrix) and
// TestDistSolverMatchesSerialSolution.
package amg
