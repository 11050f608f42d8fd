// Command cpxbench regenerates the paper's evaluation tables and figures
// on the virtual-time ARCHER2 model.
//
// Usage:
//
//	cpxbench -exp fig4ab          # one experiment
//	cpxbench -exp all             # everything (long)
//	cpxbench -exp fig8 -quick -v  # fast smoke geometry with progress
//
// Experiments: fig3 fig4ab fig4c fig5a fig5b fig6a fig6bc fig8 fig9
// sensitivity overlap amg search resilience particle-scaling all.
package main

import (
	"flag"
	"fmt"
	"os"

	"cpx/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig3, fig4ab, fig4c, fig5a, fig5b, fig6a, fig6bc, fig8, fig9, sensitivity, overlap, amg, search, resilience, particle-scaling, all)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	o := harness.DefaultOptions()
	o.Quick = *quick
	o.Verbose = *verbose

	single := map[string]func() (*harness.Table, error){
		"fig3":             o.Fig3,
		"fig4ab":           o.Fig4ab,
		"fig4c":            o.Fig4c,
		"fig5a":            o.Fig5a,
		"fig5b":            o.Fig5b,
		"fig6a":            o.Fig6a,
		"fig6bc":           o.Fig6bc,
		"fig8":             o.Fig8,
		"sensitivity":      o.Sensitivity,
		"overlap":          o.OverlapStudy,
		"amg":              o.AMGAblation,
		"search":           o.SearchAblation,
		"resilience":       o.Resilience,
		"particle-scaling": o.ParticleScaling,
	}
	order := []string{"fig3", "fig4ab", "fig4c", "fig5a", "fig5b", "fig6a", "fig6bc", "fig8", "fig9", "sensitivity", "overlap", "amg", "search", "resilience", "particle-scaling"}

	run := func(id string) {
		if id == "fig9" {
			tables, err := o.Fig9()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpxbench: %s: %v\n", id, err)
				os.Exit(1)
			}
			for _, t := range tables {
				fmt.Println(t.String())
			}
			return
		}
		fn, ok := single[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "cpxbench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		t, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpxbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
	}

	if *exp == "all" {
		for _, id := range order {
			run(id)
		}
		return
	}
	run(*exp)
}
