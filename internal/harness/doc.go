// Package harness reproduces every table and figure of the paper's
// evaluation (Sections III-V): it runs the mini-apps standalone on the
// virtual-time ARCHER2 model to produce speedup/parallel-efficiency
// sweeps, profiles the pressure-solver proxy per function, builds and
// validates the empirical performance model, and executes the coupled
// mini-app engine simulations. Each experiment returns Tables whose rows
// mirror what the paper reports; Catalogue (catalogue.go) is the one list
// of them, and cmd/cpxbench runs and prints its entries.
//
// Invariant: an experiment's table is a pure function of its Options, so
// the same command prints the same bytes at any GOMAXPROCS, and the
// recorded tables in results/ are reproduced byte for byte. Oracles:
// TestCoupledPipelinesPinned, TestGoldenStandaloneRuntimes,
// TestCatalogueIsTheIndex and cmd/cpxbench's TestStdoutIsTheRecordedTable.
package harness
