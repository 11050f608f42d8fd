// Package scratch sizes the reusable working vectors the solver proxies
// keep on their per-rank objects (DESIGN.md §5.13): a kernel asks for the
// length it needs on every call instead of making a vector per call.
//
// Invariant: after the first call on a field, every call that asks for
// no more than the field's capacity returns the same backing array, so a
// kernel's steady state allocates nothing; only a longer request
// replaces it, with a zeroed array. Contents are the last use's. Oracle:
// TestFloatsKeepsItsBackingArray.
package scratch
