// Package mesh generates and decomposes the synthetic unstructured meshes
// the mini-apps run on. Global meshes in the paper reach 1.2Bn cells, far
// beyond what can be instantiated; like production codes the mini-apps
// never hold the global mesh. Instead a Decomp describes a block
// decomposition of a hex-dominant duct/annulus mesh analytically: every
// rank derives its own box, its halo faces and its neighbours in O(1),
// which scales to the paper's 40,000-rank runs.
//
// For the virtual-time runs each rank may cap its *allocated* working set
// (Local.Sim) while costs are charged for the *true* box (Local.True);
// the Scale factor connects the two (DESIGN.md §5.2).
//
// The package owns what the solvers share about the decomposition: the
// run's one Decomp (SharedDecomp, memoised through mpi.Shared), the
// neighbour faces, the face-index walk (FaceIndices, on cells or nodes)
// and the per-level face size (Neighbor.FaceCellsAt).
//
// Invariant: the boxes of a Decomp tile the mesh, and neighbour faces are
// symmetric. Oracles: TestDecompBoxesProperty, TestNeighborsSymmetric,
// TestFaceCellsAt, TestSharedDecompIsTheRunsOne, and the face walk
// against per-axis references on nodes and cells, mgcfd
// TestFaceIndicesMatchesFaceNodes and pressure
// TestFaceIndicesMatchesCellFace.
package mesh
