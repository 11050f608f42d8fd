// Package fem implements the finite-element thermal solver the paper's
// conclusions name as the next coupling target: "work is ongoing to
// include FEM solvers for thermal coupling of the engine casing, allowing
// us to run coupled CFD, Combustion and Structural simulations".
//
// The casing is modelled as an annular shell meshed with 4-node bilinear
// quadrilateral elements. Element stiffness and lumped-mass matrices are
// assembled for the transient heat equation
//
//	rho*c * dT/dt = div(k grad T) + q
//
// and each time-step solves the backward-Euler system
// (M/dt + K) T = M/dt T_prev + Q with AMG-preconditioned conjugate
// gradients over a row-block distribution — the same solver stack as the
// pressure correction, exercised on a genuinely assembled FEM operator.
//
// The fixed geometry, heat capacity and time-step are constants in
// fem.go; Config keeps the mesh, the conductivity and the step count.
// Oracles: TestParallelMatchesSerial (distributed against serial
// solve) and coupler TestGoldenCoupledDigests (the FEM row).
package fem
