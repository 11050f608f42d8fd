// Package serve exposes the performance model and the virtual-time
// coupled simulator as an HTTP JSON service: fit PE curves, run the
// Algorithm 1 greedy allocation, predict speedups, and execute coupled
// simulations one at a time (/v1/simulate) or as a grid (/v1/sweep).
// SimSpec, the /v1/simulate schema, is also the cpxsim -config schema,
// so a scenario file works unchanged as a request body.
//
// A request is canonical bytes in, artifact bytes out: the body is
// strictly decoded and re-encoded, and the SHA-256 of endpoint and
// canonical bytes addresses the response, computed once and then served
// from memory, disk or the shard that owns the key. Cache.Do is the one
// admission gate for local work — it joins an identical computation,
// else starts, queues or refuses (429) a new one — and a queued job
// whose last waiter leaves gives its slot back without running. The
// cache entry is the one record of a computation: a request's registry
// job stores no progress of its own, but views the entry it started or
// joined until the request finishes, so every waiter reads the same
// state and virtual time. Below
// the cache, a plan memo keeps one Algorithm 1 walk per component set,
// so allocations that differ only in budget replay it (plans.go).
//
// One retention rule bounds what the service keeps: lru (lru.go), a
// weighted least-recently-used map. The memory tier weighs artifacts in
// bytes, the plan memo weighs plans in grants, and the registry keeps
// its live jobs plus the maxRetainedJobs most recently finished or
// looked up.
//
// Invariant: a cache key's artifact is a pure function of its canonical
// bytes, whatever the load, deadlines or cancellations around it.
// Oracles: TestDemoCacheKeyPinned (the key derivation), the seeded
// TestCancellationStorm (every 200 byte-identical to an undisturbed
// server's, nothing leaked), FuzzSimulateSpec (decode and canonicalise
// on arbitrary bytes), FuzzExpandSweep (sweep axes to points keyed as
// /v1/simulate bodies) and, for the registry,
// TestRegistryKeepsLongJobAfterFinish (retention) and
// TestJoinerViewsItsComputation (a joiner's record is its computation's).
package serve
