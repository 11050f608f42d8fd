package harness

// Experiment is one entry of the catalogue: `cpxbench -exp <ID>` runs it
// and its recorded full-scale output is results/<ID>.txt.
type Experiment struct {
	ID    string
	Paper string // the paper item (or declared extension) it reproduces
	Run   func(Options) ([]*Table, error)
}

// Catalogue is the one list of experiments, in the order `cpxbench -exp
// all` runs them. cpxbench's help, dispatch and unknown-id message, the
// results/ file names and the experiment ids the docs may cite are all
// derived from or checked against it (TestCatalogueIsTheIndex); adding
// an experiment is one line here plus its results file.
var Catalogue = []Experiment{
	{"fig3", "Fig. 3: pressure-solver / SIMPIC test-case equivalence", one(Options.Fig3)},
	{"fig4ab", "Fig. 4a,b: speedup and parallel efficiency, pressure solver vs Base-STC", one(Options.Fig4ab)},
	{"fig4c", "Fig. 4c: 380M-equivalent Base-STC speedup", one(Options.Fig4c)},
	{"fig5a", "Fig. 5a: pressure-solver per-function run-time breakdown", one(Options.Fig5a)},
	{"fig5b", "Fig. 5b: per-function parallel efficiency", one(Options.Fig5b)},
	{"fig6a", "Fig. 6a: predicted parallel efficiency after the optimisations", one(Options.Fig6a)},
	{"fig6bc", "Fig. 6b,c: optimised pressure solver vs Optimized-STC", one(Options.Fig6bc)},
	{"fig8", "Fig. 8a,b: small coupled validation on 5,000 cores", one(Options.Fig8)},
	{"fig9", "Fig. 9a,b,c: full engine at 40,000 cores, both STC variants", Options.Fig9},
	{"sensitivity", "Section V-C: best/worst-case speedup bounds", one(Options.Sensitivity)},
	{"overlap", "Section II-A: overlapping-interface overhead (declared exploration)", one(Options.OverlapStudy)},
	{"amg", "Section IV: per-optimisation AMG ablation", one(Options.AMGAblation)},
	{"search", "Section V-B: donor-search strategy ablation", one(Options.SearchAblation)},
	{"resilience", "extension: checkpoint interval vs MTBF under injected faults", one(Options.Resilience)},
	{"particle-scaling", "extension: MiniCombust particle scaling suites", one(Options.ParticleScaling)},
}

// one adapts a single-table experiment to the catalogue's signature.
func one(f func(Options) (*Table, error)) func(Options) ([]*Table, error) {
	return func(o Options) ([]*Table, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Lookup returns the catalogue entry with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Catalogue {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the catalogue's ids in catalogue order.
func IDs() []string {
	ids := make([]string, len(Catalogue))
	for i, e := range Catalogue {
		ids[i] = e.ID
	}
	return ids
}
