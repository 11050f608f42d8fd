package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSimulateSpec holds the /v1/simulate decode path to its contract
// on arbitrary bytes. A body DecodeStrict accepts has a canonical form
// that is a fixed point: decoding it and canonicalising again gives the
// same bytes and so the same cache key. Build and Validate never panic,
// and a spec they accept stays inside the rank bound.
//
//	go test -run '^$' -fuzz FuzzSimulateSpec -fuzztime 60s ./internal/serve
func FuzzSimulateSpec(f *testing.F) {
	// The cpxsim -demo scenario, the test scenario and a sweep point.
	f.Add([]byte(`{"densitySteps": 4, "rotationPerStep": 0.002, "instances": [
	  {"name": "compressor", "kind": "mgcfd", "meshCells": 100000, "ranks": 8, "seed": 1},
	  {"name": "combustor", "kind": "simpic", "meshCells": 28000000, "ranks": 8, "seed": 2},
	  {"name": "turbine", "kind": "mgcfd", "meshCells": 100000, "ranks": 8, "seed": 3}], "units": [
	  {"name": "hpc-comb", "a": 0, "b": 1, "kind": "steady", "points": 50000, "ranks": 2, "search": "prefetch", "exchangeEvery": 2},
	  {"name": "comb-hpt", "a": 1, "b": 2, "kind": "steady", "points": 50000, "ranks": 2, "search": "prefetch", "exchangeEvery": 2}]}`))
	f.Add([]byte(simBody))
	var sweep SweepRequest
	if err := DecodeStrict(strings.NewReader(`{"template": `+sweepTemplate+`,
	  "axes": {"seedOffsets": [3], "meshScales": [2.5], "rankScales": [0.5]}}`), &sweep); err != nil {
		f.Fatal(err)
	}
	points, err := expandSweep(&sweep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(points[0].canonical)

	f.Fuzz(func(t *testing.T, body []byte) {
		var req SimulateRequest
		if DecodeStrict(bytes.NewReader(body), &req) != nil {
			return
		}
		canonical, err := canonicalize(&req)
		if err != nil {
			t.Fatalf("accepted body has no canonical form: %v", err)
		}
		var again SimulateRequest
		if err := DecodeStrict(bytes.NewReader(canonical), &again); err != nil {
			t.Fatalf("canonical form %s does not decode: %v", canonical, err)
		}
		recanonical, err := canonicalize(&again)
		if err != nil || cacheKey("/v1/simulate", recanonical) != cacheKey("/v1/simulate", canonical) {
			t.Fatalf("canonical form is not a fixed point (%v):\n%s\n%s", err, canonical, recanonical)
		}
		sim, err := req.Build()
		if err != nil || sim.Validate() != nil {
			return
		}
		if n := sim.TotalRanks(); n > maxRanks {
			t.Fatalf("accepted %d ranks, above %d: %s", n, maxRanks, canonical)
		}
	})
}
