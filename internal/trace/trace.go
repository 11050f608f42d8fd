// Package trace provides lightweight hierarchical timing instrumentation
// for the virtual-time mini-apps. It plays the role ARM MAP plays in the
// paper: every named region of a solver accumulates separate compute and
// communication time, and per-rank profiles can be merged into the
// per-function breakdown tables of Fig. 5.
//
// A Profile is owned by a single rank (goroutine) and is not safe for
// concurrent use; merging across ranks happens after a run completes.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cpx/internal/order"
)

// Entry accumulates time attributed to one named region.
type Entry struct {
	Compute float64 // virtual seconds spent in computation
	Comm    float64 // virtual seconds spent in communication (incl. wait)
	Calls   int64   // number of times the region was entered
}

// Total returns compute plus communication time.
func (e Entry) Total() float64 { return e.Compute + e.Comm }

// Profile records per-region compute/communication time for one rank.
// The zero value is not usable; call NewProfile.
type Profile struct {
	entries map[string]*Entry
	stack   []string
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{entries: make(map[string]*Entry)}
}

// Push enters a named region. Regions nest; time is attributed to the
// innermost open region only, so parents see exclusive (self) time.
func (p *Profile) Push(name string) {
	p.stack = append(p.stack, name)
	p.entry(name).Calls++
}

// Pop leaves the innermost region and returns its name. Popping an empty
// stack panics: it is always a programming error in the instrumented
// solver.
func (p *Profile) Pop() string {
	if len(p.stack) == 0 {
		panic("trace: Pop on empty region stack")
	}
	name := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	return name
}

// Scoped enters a named region and returns the function that leaves it,
// for defer-friendly pairing at call sites:
//
//	defer p.Scoped("pressure_field")()
func (p *Profile) Scoped(name string) func() {
	p.Push(name)
	return func() { p.Pop() }
}

// Current returns the innermost open region name, or "other" if none.
func (p *Profile) Current() string {
	if len(p.stack) == 0 {
		return "other"
	}
	return p.stack[len(p.stack)-1]
}

func (p *Profile) entry(name string) *Entry {
	e := p.entries[name]
	if e == nil {
		e = &Entry{}
		p.entries[name] = e
	}
	return e
}

// AddCompute attributes s virtual seconds of computation to the current region.
func (p *Profile) AddCompute(s float64) { p.entry(p.Current()).Compute += s }

// AddComm attributes s virtual seconds of communication to the current region.
func (p *Profile) AddComm(s float64) { p.entry(p.Current()).Comm += s }

// Entry returns a copy of the named region's totals (zero if absent).
func (p *Profile) Entry(name string) Entry {
	if e := p.entries[name]; e != nil {
		return *e
	}
	return Entry{}
}

// Regions returns the region names present, sorted.
func (p *Profile) Regions() []string { return order.SortedKeys(p.entries) }

// Total sums compute and comm over all regions, in region-name order:
// float addition is not associative, so summing in map order gave the
// same profile different totals (and Report different shares) from one
// call to the next.
func (p *Profile) Total() (compute, comm float64) {
	for _, name := range p.Regions() {
		e := p.entries[name]
		compute += e.Compute
		comm += e.Comm
	}
	return
}

// Merge adds all of q's entries into p. Used to aggregate rank profiles.
func (p *Profile) Merge(q *Profile) {
	for _, name := range q.Regions() {
		e := q.entries[name]
		t := p.entry(name)
		t.Compute += e.Compute
		t.Comm += e.Comm
		t.Calls += e.Calls
	}
}

// MergeAll aggregates a set of per-rank profiles into one summed profile.
func MergeAll(profiles []*Profile) *Profile {
	out := NewProfile()
	for _, q := range profiles {
		if q != nil {
			out.Merge(q)
		}
	}
	return out
}

// Breakdown is one row of a per-function report: the share of total
// run-time a region consumes, split into compute and communication,
// mirroring Fig. 5a of the paper.
type Breakdown struct {
	Region       string
	ComputeShare float64 // fraction of total time in this region's compute
	CommShare    float64 // fraction of total time in this region's comm
}

// TotalShare is the region's overall share of run-time.
func (b Breakdown) TotalShare() float64 { return b.ComputeShare + b.CommShare }

// Report computes per-region shares of the profile's total time, sorted by
// descending total share.
func (p *Profile) Report() []Breakdown {
	compute, comm := p.Total()
	total := compute + comm
	if total <= 0 {
		return nil
	}
	rows := make([]Breakdown, 0, len(p.entries))
	for _, name := range p.Regions() {
		e := p.entries[name]
		rows = append(rows, Breakdown{
			Region:       name,
			ComputeShare: e.Compute / total,
			CommShare:    e.Comm / total,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		ti, tj := rows[i].TotalShare(), rows[j].TotalShare()
		if ti != tj {
			return ti > tj
		}
		return rows[i].Region < rows[j].Region
	})
	return rows
}

// WriteCSV emits the per-region breakdown as CSV (region, compute share,
// comm share, calls) for external plotting of Fig. 5-style figures.
func (p *Profile) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"region", "compute_share", "comm_share", "total_share", "calls"}); err != nil {
		return err
	}
	for _, b := range p.Report() {
		e := p.entries[b.Region]
		rec := []string{
			b.Region,
			strconv.FormatFloat(b.ComputeShare, 'f', 6, 64),
			strconv.FormatFloat(b.CommShare, 'f', 6, 64),
			strconv.FormatFloat(b.TotalShare(), 'f', 6, 64),
			strconv.FormatInt(e.Calls, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the report as an aligned text table.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s %10s %8s\n", "region", "compute%", "comm%", "total%", "calls")
	for _, b := range p.Report() {
		e := p.entries[b.Region]
		fmt.Fprintf(&sb, "%-16s %9.1f%% %9.1f%% %9.1f%% %8d\n",
			b.Region, 100*b.ComputeShare, 100*b.CommShare, 100*b.TotalShare(), e.Calls)
	}
	return sb.String()
}
