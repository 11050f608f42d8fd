package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
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
	if err := serve.DecodeStrict(strings.NewReader(raw), &jc); err != nil {
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

// TestConfigDecodesStrictly: -config holds a file to the /v1/simulate
// schema. An unknown field at either level or trailing data fails the
// run naming what is wrong, before anything is simulated; the shipped
// engine config still runs.
func TestConfigDecodesStrictly(t *testing.T) {
	engine, err := os.ReadFile("../../examples/engine.json")
	if err != nil {
		t.Fatal(err)
	}
	const inst = `{"name": "row", "kind": "mgcfd", "meshCells": 20000, "ranks": 2}`
	for _, tc := range []struct{ name, body, wantErr string }{
		{"examples/engine.json", string(engine), ""},
		{"unknown instance field", `{"densitySteps": 1, "instances": [{"name": "row", "kind": "mgcfd", "meshCell": 200000, "ranks": 2}]}`, `unknown field "meshCell"`},
		{"unknown top-level field", `{"densitySteps": 1, "instances": [` + inst + `], "unit": []}`, `unknown field "unit"`},
		{"trailing data", `{"densitySteps": 1, "instances": [` + inst + `]} {}`, "trailing data"},
	} {
		path := filepath.Join(t.TempDir(), "config.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-config", path}, &stdout, &stderr)
		switch {
		case tc.wantErr == "" && code != 0:
			t.Errorf("%s: exit %d: %s", tc.name, code, stderr.String())
		case tc.wantErr != "" && (code == 0 || !strings.Contains(stderr.String(), tc.wantErr) || stdout.Len() != 0):
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want a failure naming %s", tc.name, code, stdout.String(), stderr.String(), tc.wantErr)
		}
	}
}

// TestConfigRanksAreBounded: a -config scenario is held to the rank
// bound of a /v1/simulate body, and the failure names the field.
func TestConfigRanksAreBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	body := `{"densitySteps": 1, "instances": [{"name": "row", "kind": "mgcfd", "meshCells": 20000, "ranks": 8000000000}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", path}, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), `field "ranks"`) {
		t.Errorf("exit %d, stderr %q; want a failure naming field \"ranks\"", code, stderr.String())
	}
}

// TestNegativeFlagsAreRejected: a negative MTBF, checkpoint interval or
// sampling period is a usage error naming the flag, not a silent
// fault-free run.
func TestNegativeFlagsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-demo", "-faults", "-1", "-ckpt", "-3"},
		{"-demo", "-ckpt", "-3"},
		{"-demo", "-metrics-interval", "-0.5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), args[1]+" must be") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s", args, code, stdout.String(), stderr.String(), args[1])
		}
	}
}

// TestDocumentedCommandsParse: every cpxsim command line in a fenced
// block of the docs, and in this package's usage comment, parses
// through run's flag set.
func TestDocumentedCommandsParse(t *testing.T) {
	var lines []string
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(strings.ReplaceAll(string(text), "\\\n", " "), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if fenced {
				lines = append(lines, line)
			}
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		if usage, ok := strings.CutPrefix(line, "//\t"); ok {
			lines = append(lines, usage)
		}
	}
	n := 0
	for _, line := range lines {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" {
			fields = fields[2:]
		}
		if len(fields) == 0 || (fields[0] != "cpxsim" && fields[0] != "./cmd/cpxsim") {
			continue
		}
		n++
		var stderr bytes.Buffer
		if o, code := parse(fields[1:], &stderr); o == nil {
			t.Errorf("documented %q does not parse (exit %d): %s", strings.TrimSpace(line), code, stderr.String())
		}
	}
	if n < 5 {
		t.Errorf("found %d documented cpxsim command lines, want at least 5", n)
	}
}

// TestDemoArtifactsPinned: the stdout and the four export files of a
// traced demo run, and of a faulty one that recovers, are pinned by
// SHA-256. Any change to what the runtime records or how it is exported
// shows up here as a changed digest.
func TestDemoArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		long  bool
		files map[string]string // export file -> SHA-256 of its bytes
	}{
		{"traced", []string{"-demo", "-critpath"}, false, map[string]string{
			"stdout":       "75dbaa296008760cb8c98e17c3b161fa4fdc4c4122c73fedd18265c4b2bea740",
			"trace.json":   "c700e591eaf7d6238352233b3eae6d7e1f03af06c38690b6a0e68335ffb5d956",
			"comm.csv":     "880ef1a131c83110f05c36acfc5e6b379469da6c6d4c8be6d8de075a162ad15b",
			"summary.json": "1aad2e2a5dfbeddc202d6354a8e9c31f219318d2e7b03b5718136304ca8b5b0f",
			"metrics.csv":  "9706e157b7c5bfe8073e10e7c1982abb892369685399dc56eedb842c27ae76fa",
		}},
		{"faults", []string{"-demo", "-faults", "0.002", "-ckpt", "1", "-seed", "3"}, true, map[string]string{
			"stdout":       "ca44b6358f4a8c0ede18da4f826b010527103b1a95f13c4c7ae17a7c41e4e94f",
			"trace.json":   "e28b66dcad9d9ae3e13d9fd68a25b775272d22d53147e74622d6f2f68ee9c88f",
			"comm.csv":     "10e86ba765d15641bc1fa7c519fef52930f01433cb65e6e2fdecebf25e8561dd",
			"summary.json": "450e55a8196084874ce6c99c917cff92f92fb3a28614ed1491955b6666acf269",
			"metrics.csv":  "36a32930df063631345e6dfe8f6d845c5eae56a93ec78c196f2693ad01b3a642",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("faulty demo takes seconds")
			}
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			args := append(tc.args, "-trace", path("trace.json"), "-commmatrix", path("comm.csv"),
				"-json", path("summary.json"), "-metrics", path("metrics.csv"))
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			for name, want := range tc.files {
				got := stdout.Bytes()
				if name != "stdout" {
					var err error
					if got, err = os.ReadFile(path(name)); err != nil {
						t.Fatal(err)
					}
				}
				if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
					t.Errorf("%s: sha256 %x, pinned %s", name, sum, want)
				}
			}
		})
	}
}
