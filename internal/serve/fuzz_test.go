package serve

import (
	"bytes"
	"fmt"
	"regexp"
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

// FuzzDecodeArtifact holds the disk tier's cpxdisk1 frame parser to its
// contract: any body framed as DiskCache.put frames it decodes to itself,
// and a framed artifact with any one byte changed either still decodes
// to the original body or is rejected — never to other bytes, and never
// with a panic.
//
//	go test -run '^$' -fuzz FuzzDecodeArtifact -fuzztime 60s ./internal/serve
func FuzzDecodeArtifact(f *testing.F) {
	f.Add([]byte{}, uint(0), byte('x'))
	f.Add([]byte(`{"elapsed": 1.5}`), uint(9), byte('0'))
	f.Add([]byte(simBody), uint(74), byte(' '))
	f.Add([]byte("cpxdisk1 00 3\nabc"), uint(80), byte('\n'))
	f.Fuzz(func(t *testing.T, body []byte, at uint, b byte) {
		framed := append(artifactHeader(body), body...)
		if got, ok := decodeArtifact(framed); !ok || !bytes.Equal(got, body) {
			t.Fatalf("framed body %q decoded to %q, ok=%v", body, got, ok)
		}
		mutated := bytes.Clone(framed)
		mutated[at%uint(len(mutated))] = b
		got, ok := decodeArtifact(mutated)
		if ok && !bytes.Equal(got, body) {
			t.Fatalf("byte %d set to %q: decoded to %q, want %q or a rejection", at%uint(len(mutated)), b, got, body)
		}
		if !ok && bytes.Equal(mutated, framed) {
			t.Fatal("an unchanged artifact was rejected")
		}
	})
}

// FuzzExpandSweep holds the sweep expansion to its contract on arbitrary
// axes over a fixed valid template. Axes that decode either reject the
// sweep with an error naming an axes field or the point bound (or, when
// every axis is empty, saying so), or expand into one point per element
// of the axes' cross product, at most maxSweepPoints. Each point's
// canonical form decodes strictly and canonicalises to itself, so a
// /v1/simulate post of it keys equal, and never builds above maxRanks.
//
//	go test -run '^$' -fuzz FuzzExpandSweep -fuzztime 60s ./internal/serve
func FuzzExpandSweep(f *testing.F) {
	for _, axes := range badSweepAxes {
		f.Add([]byte(axes))
	}
	for _, tc := range overflowSweepAxes {
		f.Add([]byte(tc.axes))
	}
	f.Add([]byte(`{"seedOffsets": [3], "meshScales": [2.5], "rankScales": [0.5, 1e4], "densitySteps": [1, 2]}`))
	var template SimulateRequest
	if err := DecodeStrict(strings.NewReader(sweepTemplate), &template); err != nil {
		f.Fatal(err)
	}
	named := regexp.MustCompile(`^axes\.(seedOffsets|meshScales|rankScales|densitySteps|strategies) `)
	bound := fmt.Sprintf("sweep grid exceeds %d points", maxSweepPoints)

	f.Fuzz(func(t *testing.T, axes []byte) {
		req := SweepRequest{Template: template}
		if DecodeStrict(bytes.NewReader(axes), &req.Axes) != nil {
			return
		}
		ax := &req.Axes
		total, empty := 1, true
		for _, n := range []int{len(ax.SeedOffsets), len(ax.MeshScales), len(ax.RankScales), len(ax.DensitySteps), len(ax.Strategies)} {
			if n > 0 {
				total, empty = min(total*n, maxSweepPoints+1), false
			}
		}
		points, err := expandSweep(&req)
		if err != nil {
			if msg := err.Error(); !named.MatchString(msg) && msg != bound && !(empty && strings.HasPrefix(msg, "axes are empty")) {
				t.Fatalf("axes %s: error %q names no axes field and not the point bound", axes, msg)
			}
			return
		}
		if empty || total > maxSweepPoints || len(points) != total {
			t.Fatalf("axes %s expanded into %d points, want %d of at most %d", axes, len(points), total, maxSweepPoints)
		}
		for _, p := range points {
			var again SimulateRequest
			if err := DecodeStrict(bytes.NewReader(p.canonical), &again); err != nil {
				t.Fatalf("point %d's canonical form %s does not decode: %v", p.index, p.canonical, err)
			}
			if recanonical, err := canonicalize(&again); err != nil || !bytes.Equal(recanonical, p.canonical) {
				t.Fatalf("point %d's canonical form is not a fixed point (%v):\n%s\n%s", p.index, err, p.canonical, recanonical)
			}
			if sim, err := again.Build(); err == nil && sim.TotalRanks() > maxRanks {
				t.Fatalf("point %d builds %d ranks, above %d: %s", p.index, sim.TotalRanks(), maxRanks, p.canonical)
			}
		}
	})
}
