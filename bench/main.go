// Command bench is the repository's host-time benchmark: four workloads
// that stress different layers, end-to-end metrics with regression
// bounds, and — with -traced — per-layer metrics measured from outside
// by timing calls into public functions of cpx/internal packages.
// See README.md in this directory.
//
//	go run ./bench -workload all [-seed N] [-traced] [-out FILE]
//	go run ./bench -workload engine -seed 7 -seconds 20 -trace 1
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// defaultSeed is the seed of recorded baselines; claimSeed is the second
// seed a gain must also hold on (choosing-metrics guide, section 6).
const (
	defaultSeed = 1
	claimSeed   = 20230515
)

func main() {
	os.Exit(run())
}

func run() int {
	// One process, two threads of Go code: the reference host has two
	// cores, and a fixed value keeps runs on larger hosts comparable.
	runtime.GOMAXPROCS(2)

	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	workloadFlag := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("seed every generated input derives from (baselines use %d; confirm a claimed gain on %d too)", defaultSeed, claimSeed))
	seconds := flag.Float64("seconds", 0, "measure for about this long per workload (0: the full-set iteration counts)")
	traced := flag.Bool("traced", false, "after the end-to-end iterations, repeat once with spans, a CPU profile and layer probes on")
	trace := flag.Int("trace", 0, "1 is -traced and puts the per-layer metrics on the result line; 0 the end-to-end metrics")
	out := flag.String("out", "", "write the full results (and, when traced, the spans) to FILE as JSON")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}

	var selected []workloadDef
	for _, w := range workloads {
		if *workloadFlag == "all" || *workloadFlag == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s or all)\n", *workloadFlag, strings.Join(names, ", "))
		return 2
	}

	opt := options{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1}
	rf := RunFile{Schema: runFileSchema, Seed: *seed, Traced: opt.traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, def := range selected {
		res := runWorkload(def, opt)
		printResult(res)
		rf.Workloads = append(rf.Workloads, res)
	}
	// The last scratch directory's parent goes too, if nothing else uses it.
	_ = os.Remove(tmpRoot)

	if *out != "" {
		data, err := json.MarshalIndent(&rf, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	line, correct := resultLine(rf.Workloads, *trace == 1)
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

// runCompare is -compare: exit status 1 when any metric is worse.
func runCompare(pathA, pathB string) int {
	a, err := readRunFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRunFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compareRuns(a, b, os.Stdout) {
		return 1
	}
	return 0
}

// printResult prints every metric of one workload by name, with unit
// and sample count.
func printResult(res WorkloadResult) {
	fmt.Printf("== %s: %d iterations, %d checks, %d failed ==\n", res.Name, res.Iterations, res.OpsAttempted, res.OpsFailed)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	table := func(defs []metricDef, values map[string]MetricValue) {
		for _, d := range defs {
			if v, ok := values[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%s\t%s\tn=%d\n", d.Name, formatValue(v), v.Unit, v.N)
			}
		}
	}
	table(endToEnd, res.EndToEnd)
	fmt.Fprintf(tw, "  ops_attempted\t%d\tcount\t\n  ops_failed\t%d\tcount\t\n", res.OpsAttempted, res.OpsFailed)
	if res.PerLayer != nil {
		fmt.Fprintln(tw, "  -- per layer (traced iteration) --\t\t\t")
		table(perLayer, res.PerLayer)
	}
	tw.Flush()
}

// formatValue prints counts (digests among them) with every digit and
// measurements to six significant figures.
func formatValue(v MetricValue) string {
	if v.Unit == "count" {
		return strconv.FormatFloat(v.Value, 'f', -1, 64)
	}
	return strconv.FormatFloat(v.Value, 'g', 6, 64)
}

// resultLine renders the machine-readable last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. With one workload the
// metrics are the BENCHMARK.json end_to_end names, or with -trace 1
// every per_layer name (0 where the workload has no such layer
// metric); with several, each name is prefixed by its workload.
func resultLine(results []WorkloadResult, layers bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted, failed := 0, 0
	for _, res := range results {
		attempted += res.OpsAttempted
		failed += res.OpsFailed
		defs, values := endToEnd, res.EndToEnd
		if layers {
			defs, values = perLayer, res.PerLayer
		}
		prefix := ""
		if len(results) > 1 {
			prefix = res.Name + "."
		}
		for _, d := range defs {
			if !layers && d.Workloads != nil {
				continue
			}
			metrics[prefix+d.Name] = value{values[d.Name].Value, d.Unit}
		}
	}
	// encoding/json sorts map keys: the line is stable.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		return err.Error(), false
	}
	return string(line), failed == 0 && attempted > 0
}
