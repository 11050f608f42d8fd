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
// whose last waiter leaves gives its slot back without running.
//
// Invariant: a cache key's artifact is a pure function of its canonical
// bytes, whatever the load, deadlines or cancellations around it.
// Oracles: TestDemoCacheKeyPinned (the key derivation), the seeded
// TestCancellationStorm (every 200 byte-identical to an undisturbed
// server's, nothing leaked) and FuzzSimulateSpec (decode and
// canonicalise on arbitrary bytes).
package serve
