package main

import (
	"encoding/json"
	"strings"
	"testing"

	"cpx/internal/coupler"
	"cpx/internal/serve"
)

func TestJSONConfigBuild(t *testing.T) {
	raw := `{
	  "densitySteps": 5,
	  "rotationPerStep": 0.01,
	  "instances": [
	    {"name": "row", "kind": "mgcfd", "meshCells": 1000, "ranks": 2},
	    {"name": "comb", "kind": "simpic", "meshCells": 2000, "ranks": 3}
	  ],
	  "units": [
	    {"name": "cu", "a": 0, "b": 1, "kind": "steady", "points": 50,
	     "ranks": 1, "search": "tree", "exchangeEvery": 2}
	  ]
	}`
	var jc serve.SimSpec
	if err := json.Unmarshal([]byte(raw), &jc); err != nil {
		t.Fatal(err)
	}
	sim, err := jc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sim.TotalRanks() != 6 {
		t.Errorf("total ranks = %d, want 6", sim.TotalRanks())
	}
	if sim.Instances[1].Kind != coupler.KindSIMPIC {
		t.Error("simpic kind not parsed")
	}
	if sim.Units[0].Kind != coupler.SteadyState || sim.Units[0].Search != coupler.Tree {
		t.Errorf("unit parsed wrong: %+v", sim.Units[0])
	}
	if sim.Units[0].B != 1 {
		t.Errorf("unit B = %d, want 1", sim.Units[0].B)
	}
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONConfigRejectsUnknownKinds: every enum field of the scenario
// schema accepts its documented spellings (case-insensitively, with the
// documented meaning of an empty string) and rejects anything else with
// an error naming the field — never a silent default.
func TestJSONConfigRejectsUnknownKinds(t *testing.T) {
	cases := []struct {
		name, instKind, unitKind, search string
		wantErr                          string // "" = must build
		wantInst                         coupler.SolverKind
		wantUnit                         coupler.InterfaceKind
		wantSearch                       coupler.Search
	}{
		{"defaults", "mgcfd", "", "", "", coupler.KindMGCFD, coupler.SlidingPlane, coupler.TreePrefetch},
		{"fem casing", "fem", "steady", "brute", "", coupler.KindFEM, coupler.SteadyState, coupler.BruteForce},
		{"case-insensitive", "SIMPIC", "Sliding", "Tree", "", coupler.KindSIMPIC, coupler.SlidingPlane, coupler.Tree},
		{"unknown instance kind", "fortran", "sliding", "tree", `field "kind"`, 0, 0, 0},
		{"empty instance kind", "", "sliding", "tree", `field "kind"`, 0, 0, 0},
		{"unknown unit kind", "mgcfd", "stedy", "tree", `unit "u": field "kind"`, 0, 0, 0},
		{"unknown search", "mgcfd", "sliding", "quantum", `unit "u": field "search"`, 0, 0, 0},
	}
	for _, tc := range cases {
		jc := serve.SimSpec{
			DensitySteps: 1,
			Instances: []serve.InstanceSpec{
				{Name: "a", Kind: "mgcfd", MeshCells: 10, Ranks: 1},
				{Name: "b", Kind: tc.instKind, MeshCells: 10, Ranks: 1},
			},
			Units: []serve.UnitSpec{{Name: "u", A: 0, BIdx: 1, Kind: tc.unitKind, Points: 5, Ranks: 1, Search: tc.search}},
		}
		sim, err := jc.Build()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %s", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := sim.Instances[1].Kind; got != tc.wantInst {
			t.Errorf("%s: instance kind %v, want %v", tc.name, got, tc.wantInst)
		}
		if u := sim.Units[0]; u.Kind != tc.wantUnit || u.Search != tc.wantSearch {
			t.Errorf("%s: unit kind %v search %v, want %v %v", tc.name, u.Kind, u.Search, tc.wantUnit, tc.wantSearch)
		}
	}
}

func TestApplySeedOffsetsInstanceSeeds(t *testing.T) {
	jc := demoConfig()
	base := make([]int64, len(jc.Instances))
	for i, ji := range jc.Instances {
		base[i] = ji.Seed
	}
	jc.ApplySeed(41)
	for i, ji := range jc.Instances {
		if ji.Seed != base[i]+41 {
			t.Errorf("instance %d seed = %d, want %d", i, ji.Seed, base[i]+41)
		}
	}
	jc2 := demoConfig()
	jc2.ApplySeed(0)
	for i, ji := range jc2.Instances {
		if ji.Seed != base[i] {
			t.Errorf("zero offset changed instance %d seed to %d", i, ji.Seed)
		}
	}
}

func TestDemoConfigValid(t *testing.T) {
	sim, err := demoConfig().Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
}
