package main

import (
	"bytes"
	"os"
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
// results file (the closed-form experiments cost nothing to re-run).
func TestStdoutIsTheRecordedTable(t *testing.T) {
	for _, id := range []string{"fig3", "sensitivity"} {
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
