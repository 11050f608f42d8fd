package harness

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueIsTheIndex: the catalogue is the only experiment list.
// Its ids are unique, results/ holds exactly one <id>.txt per entry, and
// every `cpxbench -exp <id>` the docs cite is a catalogue id or "all".
func TestCatalogueIsTheIndex(t *testing.T) {
	root := filepath.Join("..", "..")
	known := map[string]bool{"all": true}
	for _, e := range Catalogue {
		if e.ID == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("incomplete catalogue entry %+v", e)
		}
		if known[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		known[e.ID] = true
		if _, err := os.Stat(filepath.Join(root, "results", e.ID+".txt")); err != nil {
			t.Errorf("experiment %q has no recorded output: %v", e.ID, err)
		}
	}

	recorded, err := os.ReadDir(filepath.Join(root, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range recorded {
		if id, ok := strings.CutSuffix(f.Name(), ".txt"); !ok || id == "all" || !known[id] {
			t.Errorf("results/%s belongs to no catalogue id", f.Name())
		}
	}

	cited := regexp.MustCompile(`-exp[ =]([A-Za-z0-9_-]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllSubmatch(text, -1) {
			if id := string(m[1]); !known[id] {
				t.Errorf("%s cites `cpxbench -exp %s`, which is not a catalogue id", doc, id)
			}
		}
	}
}
