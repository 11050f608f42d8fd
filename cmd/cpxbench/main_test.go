package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpx/internal/harness"
)

func TestUnknownExperimentListsTheCatalogue(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig9a"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown id printed to stdout: %q", stdout.String())
	}
	for _, id := range harness.IDs() {
		if !strings.Contains(stderr.String(), id) {
			t.Errorf("message does not list %q: %s", id, stderr.String())
		}
	}
}

// TestStdoutIsTheRecordedTable: with -v on, stdout is still exactly the
// results file, for every catalogue entry that re-runs in under 15 s on
// a 2-core host (about 25 s together). The five pressure sweeps are
// `make results`, and fig9 is `make results RESULTS_SWEEPS=fig9`.
func TestStdoutIsTheRecordedTable(t *testing.T) {
	for _, id := range []string{"fig3", "sensitivity", "search", "overlap", "particle-scaling", "amg", "resilience", "fig4c", "fig8"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-v", "-exp", id}, &stdout, &stderr); code != 0 {
			t.Fatalf("-exp %s: exit code %d: %s", id, code, stderr.String())
		}
		want, err := os.ReadFile("../../results/" + id + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		if stdout.String() != string(want) {
			t.Errorf("-exp %s stdout differs from results/%s.txt:\n%s", id, id, stdout.String())
		}
	}
}

// TestUsageExitCodes: -h lists the catalogue and exits 0, a bad flag
// exits 2, and neither runs an experiment.
func TestUsageExitCodes(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		code int
	}{{"-h", 0}, {"-nosuchflag", 2}} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.arg}, &stdout, &stderr); code != tc.code || stdout.Len() != 0 || !strings.Contains(stderr.String(), "experiments:") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and the catalogue on stderr", tc.arg, code, stdout.String(), stderr.String(), tc.code)
		}
	}
}

// TestDocumentedCommandsParse: every cpxbench command line in a fenced
// block of the docs, and in this package's usage comment, parses
// through run's flag set and names a catalogue experiment. The
// placeholder <id> stands for any id.
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
		fields := strings.Fields(strings.ReplaceAll(line, "<id>", harness.Catalogue[0].ID))
		if len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" {
			fields = fields[2:]
		}
		if len(fields) == 0 || (fields[0] != "cpxbench" && fields[0] != "./cmd/cpxbench") {
			continue
		}
		n++
		var stderr bytes.Buffer
		if todo, _, code := parse(fields[1:], &stderr); todo == nil && code != 0 {
			t.Errorf("documented %q does not parse (exit %d): %s", strings.TrimSpace(line), code, stderr.String())
		}
	}
	if n < 5 {
		t.Errorf("found %d documented cpxbench command lines, want at least 5", n)
	}
}
