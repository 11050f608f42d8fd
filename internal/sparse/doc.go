// Package sparse implements the compressed-sparse-row kernels the
// paper's pressure-solver analysis centres on: SpMV, SpGEMM in the
// baseline two-pass and the optimised single-pass sparse-accumulator
// (SPA) forms, the identity-block reordering of interpolation operators
// (Section IV of the paper; Park et al. [48]) and the row-distributed
// SpMV, Dist.
//
// Invariant: CSR.MulVec sums each row in ascending column order, so its
// result does not depend on how the kernel is written. Oracles:
// TestMulVecMatchesReference (MulVec against the RowPtr loop, bit for
// bit) and TestDistMulVecMatchesSerial (Dist against the serial product).
package sparse
