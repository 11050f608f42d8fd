// Package partition provides geometric partitioning for the mini-apps:
// recursive coordinate bisection (RCB) of point sets, as flat labels
// (RCB) or as a reusable cut tree (RCBTree); the balance metrics the
// tests measure them with (PartSizes, Imbalance) live in the tests.
// Production runs in the paper partition offline with METIS-class tools;
// RCB fills the same role here.
//
// Invariant: a partition is a pure function of the points and the part
// count. Equal coordinates tie-break on point index, so every rank that
// partitions the same gathered sample gets the same labels, and the same
// tree, without communicating; and the tree's cuts are RCB's medians, so
// Locate on a build point returns the label RCB gave it. Oracles:
// TestRCBTreeMatchesRCBLabels and TestRCBDeterministic.
package partition
