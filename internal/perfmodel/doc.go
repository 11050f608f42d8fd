// Package perfmodel implements the paper's empirical performance model
// (Section V): parallel-efficiency curves fitted to standalone mini-app
// benchmarks, run-time scaling by mesh size and iteration count relative
// to a base case, and the greedy rank-allocation loop of Algorithm 1 that
// distributes a core budget across solver instances and coupling units so
// the coupled run-time — MAX(instances) + MAX(CUs) — is minimised.
//
// FitCurve grid-searches (P50, K) and refines by coordinate descent; its
// cost is summed only while it can still beat the best candidate so far
// (DESIGN.md §5.13). Allocate grants one core at a time from two
// max-heaps of the slowest instance and coupling unit. A Plan keeps
// that walk for one component set and answers any budget from it.
//
// Invariant: FitCurve and Allocate are bitwise equal to their
// references in the test files, referenceFitCurve and allocateReference.
// The walk never reads the budget, so Plan.Allocate(b) is a prefix
// replay, bitwise equal to allocateReference at b.
// Oracles: TestFitCurveMatchesReference, TestFitCostPrunesExactly,
// FuzzFitCurve, TestAllocateMatchesReference and TestPlanMatchesReference.
package perfmodel
