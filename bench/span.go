package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark from
// outside the program. Times are seconds since the recorder started.
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Iter     int     `json:"iter"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Self     float64 `json:"self_s"` // filled by Finish
}

// Duration is the span's wall time in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how end-to-end runs keep tracing off.
type Recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	iter     int
	spans    []Span
}

// NewRecorder starts a recorder for one iteration of one workload.
func NewRecorder(workload string, iter int) *Recorder {
	return &Recorder{t0: time.Now(), workload: workload, iter: iter}
}

// Begin opens a span under parent (0 for a root) and returns its ID.
// On a nil recorder it returns 0.
func (r *Recorder) Begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name,
		Workload: r.workload, Iter: r.iter, Start: now, End: now})
	return id
}

// End closes the span with the given ID.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Finish computes every span's self time and returns the spans.
func (r *Recorder) Finish() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	return r.spans
}

// selfTimes sets Self = duration − the part of the span's interval its
// child spans cover. Children of concurrent clients may overlap, so the
// covered part is the union of their intervals clipped to the parent,
// not their sum.
func selfTimes(spans []Span) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.Duration() - covered
	}
}

// spanDurations returns the durations of every span with the given
// name, in recording order.
func spanDurations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Duration())
		}
	}
	return out
}
