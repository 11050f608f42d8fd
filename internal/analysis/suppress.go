package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression is one parsed //lint:allow directive.
type Suppression struct {
	Pos    token.Position
	Rule   string
	Reason string
}

// SuppressionSet indexes the //lint:allow directives of a package. A
// directive silences matching diagnostics on its own line and on the
// line immediately below it (so it can trail the offending statement or
// sit on its own line above it).
type SuppressionSet struct {
	// byFileLine maps filename -> line -> rules allowed on that line.
	byFileLine map[string]map[int][]Suppression
	// Malformed holds directives with a missing reason or unknown rule;
	// Check reports these as findings so suppressions stay reviewed.
	Malformed []Diagnostic
}

const allowMarker = "lint:allow"

// CollectSuppressions parses every //lint:allow directive in files.
// validRules, when non-nil, is used to reject unknown rule names.
func CollectSuppressions(fset *token.FileSet, files []*ast.File, validRules map[string]bool) *SuppressionSet {
	set := &SuppressionSet{byFileLine: make(map[string]map[int][]Suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				set.parseComment(fset, c)
			}
		}
	}
	if validRules != nil {
		kept := set.byFileLine
		set.byFileLine = make(map[string]map[int][]Suppression)
		for file, lines := range kept {
			for line, supps := range lines {
				for _, s := range supps {
					if !validRules[s.Rule] {
						set.Malformed = append(set.Malformed, Diagnostic{
							Pos: s.Pos, Rule: "lint",
							Message: "suppression names unknown rule " + quote(s.Rule),
						})
						continue
					}
					set.add(file, line, s)
				}
			}
		}
	}
	return set
}

func quote(s string) string { return "\"" + s + "\"" }

func (set *SuppressionSet) add(file string, line int, s Suppression) {
	lines := set.byFileLine[file]
	if lines == nil {
		lines = make(map[int][]Suppression)
		set.byFileLine[file] = lines
	}
	lines[line] = append(lines[line], s)
}

// parseComment extracts every lint:allow directive in one comment. Only
// comments that BEGIN with the marker are directives — prose that merely
// mentions it (docs, examples) is ignored. A single directive comment may
// carry several directives; each runs up to the next marker.
func (set *SuppressionSet) parseComment(fset *token.FileSet, c *ast.Comment) {
	text := c.Text
	for _, prefix := range [2]string{"//", "/*"} {
		if rest, ok := strings.CutPrefix(text, prefix); ok {
			text = rest
			break
		}
	}
	if !strings.HasPrefix(strings.TrimLeft(text, " \t"), allowMarker) {
		return
	}
	pos := fset.Position(c.Pos())
	for {
		i := strings.Index(text, allowMarker)
		if i < 0 {
			return
		}
		text = text[i+len(allowMarker):]
		body := text
		if j := strings.Index(body, allowMarker); j >= 0 {
			body = body[:j]
		}
		fields := strings.Fields(body)
		s := Suppression{Pos: pos}
		if len(fields) > 0 {
			s.Rule = fields[0]
			s.Reason = strings.Join(fields[1:], " ")
		}
		switch {
		case s.Rule == "":
			set.Malformed = append(set.Malformed, Diagnostic{
				Pos: pos, Rule: "lint", Message: "suppression is missing a rule name: //lint:allow <rule> <reason>",
			})
		case s.Reason == "":
			set.Malformed = append(set.Malformed, Diagnostic{
				Pos: pos, Rule: "lint", Message: "suppression of " + quote(s.Rule) + " is missing a reason: //lint:allow <rule> <reason>",
			})
		default:
			set.add(pos.Filename, pos.Line, s)
		}
	}
}

// Allows reports whether a diagnostic of rule at pos is suppressed.
func (set *SuppressionSet) Allows(d Diagnostic) bool {
	lines := set.byFileLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, s := range lines[line] {
			if s.Rule == d.Rule {
				return true
			}
		}
	}
	return false
}

// Filter splits diagnostics into kept (unsuppressed) and suppressed.
func (set *SuppressionSet) Filter(diags []Diagnostic) (kept, suppressed []Diagnostic) {
	for _, d := range diags {
		if set.Allows(d) {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	return kept, suppressed
}
