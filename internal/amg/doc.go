// Package amg implements the algebraic-multigrid stack that Section IV of
// the paper analyses and optimises: strength-of-connection graphs,
// aggregation and PMIS coarsening, direct and extended+i (distance-two)
// interpolation, Jacobi / Gauss-Seidel / hybrid Gauss-Seidel smoothers,
// V-cycles and Krylov-accelerated K-cycles, the Galerkin triple product
// built on the sparse SpGEMM kernels, and AMG-preconditioned conjugate
// gradients. CG is the one conjugate-gradient loop: Hierarchy.PCG,
// DistSolver.Solve and the pressure proxy each hand it a CGSystem whose
// methods charge their own modelled cost, and Hierarchy.Precondition is
// the one preconditioner application, one cycle from a zero iterate
// whose first sweeps skip the product with it (ApplyCycle warm-starts
// Solve).
//
// Options picks the algorithms of a variant; every numeric setting
// (strength threshold, sweeps, Jacobi and smoothing weights, depth,
// coarsest size, hybrid blocks) is one constant in hierarchy.go, shared
// by all variants. Oracles: TestGoldenIterates (the bit patterns of
// Solve and PCG over the smoother x cycle matrix),
// TestDistSolveMatchesReference (DistSolver.Solve against its own loop:
// iterates, Results and rank clocks), TestPreconditionMatchesReference
// (Precondition against clearing the iterate and calling ApplyCycle, bit
// for bit), TestSmoothFromZeroMatchesProduct (each smoother's zero-start
// shortcut against forming A·0, on a finite operator and one with an
// infinite entry), TestCGExactSolveConverges and
// TestDistSolverMatchesSerialSolution.
package amg
