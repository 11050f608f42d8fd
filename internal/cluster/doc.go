// Package cluster models the target HPC machine: its node structure,
// per-core compute rates and its interconnect. It converts abstract work
// descriptions (flops moved, bytes streamed) and message sizes into
// virtual seconds, which the mpi runtime charges against rank clocks.
//
// The shipped ARCHER2 model reproduces the machine used throughout the
// paper: an HPE-Cray EX with dual 64-core AMD EPYC 7742 nodes (128
// cores/node) and a Slingshot interconnect. Its constants are calibrated
// (see DESIGN.md §6) so the mini-apps' parallel-efficiency knees land
// where the paper's measurements put them.
//
// Invariant: a Work charge is the model of what one rank of the modelled
// machine performs, not a record of what the host did. Host work that is
// saved (a product with a known result skipped, a vector kept instead of
// made) or shared between ranks (set-up built once per run) never
// changes a charge, so virtual time does not move with it (DESIGN.md
// §5.12, §5.13). Oracles: TestComputeLinearProperty (compute time is
// linear in work) and TestTransferMonotoneProperty (transfer time never
// falls as a message grows).
package cluster
