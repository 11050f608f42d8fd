// Package sparse implements the compressed-sparse-row kernels the
// paper's pressure-solver analysis centres on: SpMV, SpGEMM in the
// baseline two-pass and the optimised single-pass sparse-accumulator
// (SPA) forms, the identity-block reordering of interpolation operators
// (Section IV of the paper; Park et al. [48]), the row-distributed
// SpMV, Dist, and Stencil3D, the 7-point Laplacian applied as a stencil.
// Operator is what a solver applies: MulVec, Residual and the assembled
// Matrix; a CSR is one, and so is a Stencil3D.
//
// Invariant: CSR.MulVec sums each row in ascending column order, so its
// result does not depend on how the kernel is written, and a Stencil3D
// sums each row as its assembled CSR row does. Oracles:
// TestMulVecMatchesReference (MulVec against the RowPtr loop, bit for
// bit), TestStencilMatchesCSR (Stencil3D against Poisson3D, bit for bit
// on finite input), TestPoisson3DMatchesReference (Poisson3D against its
// FromCOO assembly) and TestDistMulVecMatchesSerial (Dist against the
// serial product).
package sparse
