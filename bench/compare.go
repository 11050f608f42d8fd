package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// Verdicts of -compare, per workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b against baseline a. The bound is the larger
// of the metric's relative and absolute bound. When either set's own
// spread exceeds the bound the numbers cannot tell a regression from
// noise: the verdict is unresolved, unless every sample of b reads
// better than every sample of a.
func judge(d metricDef, a, b MetricValue) (verdict string, change, bound float64) {
	bound = math.Max(d.Rel*math.Abs(a.Value), d.Abs)
	change = b.Value - a.Value
	worseBy := change
	if d.HigherBetter {
		worseBy = -change
	}
	noise := math.Max(spread(a.Samples), spread(b.Samples)) * math.Abs(a.Value)
	if noise > bound {
		if allBetter(d, a.Samples, b.Samples) {
			return verdictOK, change, bound
		}
		return verdictUnresolved, change, bound
	}
	if worseBy > bound {
		return verdictWorse, change, bound
	}
	return verdictOK, change, bound
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if d.HigherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readRunFile(path string) (*RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf RunFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != runFileSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, runFileSchema)
	}
	return &rf, nil
}

// virtualEqual reports whether the simulated statistics of two traced
// results agree exactly. ok is false when either side has none.
func virtualEqual(a, b WorkloadResult) (equal, ok bool) {
	equal = true
	for _, d := range perLayer {
		if !strings.HasPrefix(d.Name, "virtual.") {
			continue
		}
		va, inA := a.PerLayer[d.Name]
		vb, inB := b.PerLayer[d.Name]
		if inA != inB || va.Value != vb.Value {
			equal = false
		}
		ok = ok || (inA && inB)
	}
	return equal, ok
}

// compareRuns prints one row per workload × end-to-end metric present
// in both files and reports whether any is worse.
func compareRuns(a, b *RunFile, out io.Writer) (anyWorse bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tspread A/B\tverdict")
	byName := map[string]WorkloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, inA := wa.EndToEnd[d.Name]
			vb, inB := wb.EndToEnd[d.Name]
			if !inA || !inB {
				continue
			}
			verdict, change, bound := judge(d, va, vb)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.4g\t±%.4g\t%.1f%%/%.1f%%\t%s\n", wa.Name, d.Name,
				va.Value, va.Unit, vb.Value, vb.Unit, change, bound, 100*spread(va.Samples), 100*spread(vb.Samples), verdict)
		}
		verdict := verdictOK
		if wb.OpsFailed > wa.OpsFailed {
			verdict, anyWorse = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tops_failed\t%d of %d\t%d of %d\t\t\t\t%s\n", wa.Name,
			wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted, verdict)
		if equal, ok := virtualEqual(wa, wb); ok {
			note := "identical"
			if !equal {
				note = "differs: not a host-only change"
			}
			fmt.Fprintf(tw, "%s\tvirtual.*\t\t\t\t\t\t%s\n", wa.Name, note)
		}
	}
	tw.Flush()
	return anyWorse
}
