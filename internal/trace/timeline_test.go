package trace

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestTimelineCoalescesContiguousCompute(t *testing.T) {
	tl := NewTimeline(0, 0)
	for i := 0; i < 100; i++ {
		tl.Add(Event{Kind: EvCompute, T0: float64(i), T1: float64(i + 1), Region: "solve", Peer: -1})
	}
	if len(tl.Events) != 1 {
		t.Fatalf("got %d events, want 1 coalesced span", len(tl.Events))
	}
	if e := tl.Events[0]; e.T0 != 0 || e.T1 != 100 {
		t.Errorf("coalesced span = [%v,%v], want [0,100]", e.T0, e.T1)
	}
	// A different region breaks the span; sends never coalesce.
	tl.Add(Event{Kind: EvCompute, T0: 100, T1: 101, Region: "other", Peer: -1})
	tl.Add(Event{Kind: EvSend, T0: 101, T1: 102, Region: "other", Peer: 1})
	tl.Add(Event{Kind: EvSend, T0: 102, T1: 103, Region: "other", Peer: 1})
	if len(tl.Events) != 4 {
		t.Errorf("got %d events, want 4", len(tl.Events))
	}
	if tl.End() != 103 {
		t.Errorf("End() = %v, want 103", tl.End())
	}
}

func TestTimelineCapCountsDropped(t *testing.T) {
	tl := NewTimeline(0, 2)
	for i := 0; i < 5; i++ {
		tl.Add(Event{Kind: EvSend, T0: float64(i), T1: float64(i + 1), Peer: 1})
	}
	if len(tl.Events) != 2 || tl.Dropped != 3 {
		t.Errorf("events=%d dropped=%d, want 2/3", len(tl.Events), tl.Dropped)
	}
}

// TestKeepLastRingSemantics: a keep-last timeline retains its last
// `depth` events, oldest first through Ordered, counts the evicted ones
// in Dropped, and still coalesces onto its newest event once wrapped.
func TestKeepLastRingSemantics(t *testing.T) {
	tl := NewKeepLast(0, 3)
	for i := 0; i < 5; i++ {
		tl.Add(Event{Kind: EvSend, T0: float64(i), T1: float64(i), Peer: i})
	}
	tl.Add(Event{Kind: EvCompute, T0: 5, T1: 6, Peer: -1})
	tl.Add(Event{Kind: EvCompute, T0: 6, T1: 7, Peer: -1})
	got := tl.Ordered()
	if len(got) != 3 || tl.Dropped != 3 {
		t.Fatalf("retained %d, dropped %d; want 3 and 3", len(got), tl.Dropped)
	}
	for i, want := range [][2]float64{{3, 3}, {4, 4}, {5, 7}} {
		if got[i].T0 != want[0] || got[i].T1 != want[1] {
			t.Errorf("event %d spans [%v,%v], want %v", i, got[i].T0, got[i].T1, want)
		}
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tl := NewTimeline(3, 0)
	tl.Add(Event{Kind: EvCompute, T0: 0, T1: 1.5, Region: "pressure_field", Peer: -1})
	tl.Add(Event{Kind: EvSend, T0: 1.5, T1: 1.6, Region: "pressure_field", Peer: 7, Bytes: 800, Tag: 4})
	tl.Add(Event{Kind: EvWait, T0: 1.6, T1: 2.0, Region: "spray", Op: "allreduce", Peer: 7, SendT: 1.2})
	var buf strings.Builder
	if err := WriteChromeTrace(&buf, []*Timeline{nil, tl}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// One metadata event plus three spans.
	if len(out.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4", len(out.TraceEvents))
	}
	span := out.TraceEvents[1]
	if span["ph"] != "X" || span["name"] != "pressure_field" || span["tid"] != float64(3) {
		t.Errorf("first span = %v", span)
	}
	if span["ts"] != 0.0 || span["dur"] != 1.5e6 {
		t.Errorf("ts/dur = %v/%v, want 0/1.5e6 µs", span["ts"], span["dur"])
	}
	if op := out.TraceEvents[3]; op["name"] != "allreduce" || op["cat"] != "wait" {
		t.Errorf("collective wait span = %v", op)
	}
}

func TestCommMatrixSortMergeCSV(t *testing.T) {
	m := &CommMatrix{Ranks: 4}
	m.AddEdge(2, 0, 1, 100)
	m.AddEdge(0, 1, 2, 16)
	m.AddEdge(0, 1, 1, 8)
	var buf strings.Builder
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	want := [][]string{
		{"src", "dst", "messages", "bytes"},
		{"0", "1", "3", "24"},
		{"2", "0", "1", "100"},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", len(recs), len(want), buf.String())
	}
	for i := range want {
		for j := range want[i] {
			if recs[i][j] != want[i][j] {
				t.Errorf("row %d = %v, want %v", i, recs[i], want[i])
			}
		}
	}
	msgs, bytes := m.Totals()
	if msgs != 4 || bytes != 124 {
		t.Errorf("Totals() = %d,%d want 4,124", msgs, bytes)
	}
}

// TestCriticalPathFollowsMessageCausality builds two hand-crafted rank
// timelines where rank 1 finishes last after waiting for rank 0's
// message, and checks the path jumps to the sender and telescopes to the
// elapsed time.
func TestCriticalPathFollowsMessageCausality(t *testing.T) {
	r0 := NewTimeline(0, 0)
	r0.Add(Event{Kind: EvCompute, T0: 0, T1: 5, Region: "work0", Peer: -1})
	r0.Add(Event{Kind: EvSend, T0: 5, T1: 5.5, Region: "work0", Peer: 1, Bytes: 8})
	// message departs at 5.5, arrives at 8

	r1 := NewTimeline(1, 0)
	r1.Add(Event{Kind: EvCompute, T0: 0, T1: 2, Region: "work1", Peer: -1})
	r1.Add(Event{Kind: EvWait, T0: 2, T1: 8, Region: "work1", Peer: 0, SendT: 5.5})
	r1.Add(Event{Kind: EvRecv, T0: 8, T1: 8.5, Region: "work1", Peer: 0})
	r1.Add(Event{Kind: EvCompute, T0: 8.5, T1: 10, Region: "work1", Peer: -1})

	cp, err := ComputeCriticalPath([]*Timeline{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Elapsed != 10 || cp.EndRank != 1 {
		t.Fatalf("Elapsed/EndRank = %v/%d, want 10/1", cp.Elapsed, cp.EndRank)
	}
	if math.Abs(cp.Total()-cp.Elapsed) > 1e-9 {
		t.Errorf("Total() = %v, want %v", cp.Total(), cp.Elapsed)
	}
	// The path must route through rank 0's compute, not rank 1's early
	// compute (which finished at 2 and then waited).
	wantSegs := []Segment{
		{Rank: 0, Kind: EvCompute, Region: "work0", T0: 0, T1: 5},
		{Rank: 0, Kind: EvSend, Region: "work0", T0: 5, T1: 5.5},
		{Rank: 1, Kind: EvWait, Region: "work1", T0: 5.5, T1: 8},
		{Rank: 1, Kind: EvRecv, Region: "work1", T0: 8, T1: 8.5},
		{Rank: 1, Kind: EvCompute, Region: "work1", T0: 8.5, T1: 10},
	}
	if len(cp.Segments) != len(wantSegs) {
		t.Fatalf("got %d segments %+v, want %d", len(cp.Segments), cp.Segments, len(wantSegs))
	}
	for i, w := range wantSegs {
		g := cp.Segments[i]
		if g.Rank != w.Rank || g.Kind != w.Kind || g.Region != w.Region || g.T0 != w.T0 || g.T1 != w.T1 {
			t.Errorf("segment %d = %+v, want %+v", i, g, w)
		}
	}
	byKind := cp.ByKind()
	if byKind["compute"] != 6.5 || byKind["wait"] != 2.5 {
		t.Errorf("ByKind = %v, want compute 6.5 wait 2.5", byKind)
	}
	regions := cp.ByRegion()
	if regions[0].Region != "work0" || math.Abs(regions[0].Total()-5.5) > 1e-12 {
		t.Errorf("top region = %+v, want work0 5.5s", regions[0])
	}
	if regions[1].Region != "work1" || math.Abs(regions[1].Compute-1.5) > 1e-12 || math.Abs(regions[1].Comm-3.0) > 1e-12 {
		t.Errorf("second region = %+v, want work1 compute 1.5 comm 3.0", regions[1])
	}
	labels := cp.ByLabel(func(r int) string { return []string{"a", "b"}[r] })
	if labels[0].Label != "a" || math.Abs(labels[0].Seconds-5.5) > 1e-12 {
		t.Errorf("ByLabel = %+v, want a=5.5s first", labels)
	}
	if s := cp.String(); !strings.Contains(s, "work0") || !strings.Contains(s, "critical path") {
		t.Errorf("String() missing content:\n%s", s)
	}
}

func TestCriticalPathRejectsDroppedEvents(t *testing.T) {
	tl := NewTimeline(0, 1)
	tl.Add(Event{Kind: EvSend, T0: 0, T1: 1, Peer: 0})
	tl.Add(Event{Kind: EvSend, T0: 1, T1: 2, Peer: 0})
	if _, err := ComputeCriticalPath([]*Timeline{tl}); err == nil {
		t.Fatal("dropped events did not fail the analysis")
	}
	if _, err := ComputeCriticalPath([]*Timeline{nil}); err == nil {
		t.Fatal("nil timeline did not fail the analysis")
	}
}

func TestScopedPairsPushPop(t *testing.T) {
	p := NewProfile()
	func() {
		defer p.Scoped("outer")()
		p.AddCompute(1)
		func() {
			defer p.Scoped("inner")()
			p.AddComm(2)
		}()
	}()
	if p.Current() != "other" {
		t.Fatalf("stack not balanced after Scoped: current = %q", p.Current())
	}
	if e := p.Entry("outer"); e.Compute != 1 || e.Calls != 1 {
		t.Errorf("outer = %+v", e)
	}
	if e := p.Entry("inner"); e.Comm != 2 || e.Calls != 1 {
		t.Errorf("inner = %+v", e)
	}
}

func TestPopReturnsName(t *testing.T) {
	p := NewProfile()
	p.Push("a")
	p.Push("b")
	if got := p.Pop(); got != "b" {
		t.Errorf("Pop() = %q, want b", got)
	}
	if got := p.Pop(); got != "a" {
		t.Errorf("Pop() = %q, want a", got)
	}
}

func TestReportTieBreakOnEqualShares(t *testing.T) {
	p := NewProfile()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		p.Push(name)
		p.AddCompute(2)
		p.Pop()
	}
	rows := p.Report()
	want := []string{"alpha", "mid", "zeta"}
	for i, w := range want {
		if rows[i].Region != w {
			t.Fatalf("tied rows order = %v, want alphabetical %v",
				[]string{rows[0].Region, rows[1].Region, rows[2].Region}, want)
		}
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	p := NewProfile()
	p.Push("pressure_field")
	p.AddCompute(3)
	p.AddComm(1)
	p.Pop()
	p.Push("spray")
	p.AddComm(4)
	p.Pop()
	var buf strings.Builder
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("WriteCSV output is not parseable CSV: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d rows, want header + 2", len(recs))
	}
	got := map[string][4]float64{}
	for _, rec := range recs[1:] {
		var vals [4]float64
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(rec[1+i], 64)
			if err != nil {
				t.Fatalf("row %v: %v", rec, err)
			}
			vals[i] = v
		}
		got[rec[0]] = vals
	}
	pf := got["pressure_field"]
	if math.Abs(pf[0]-0.375) > 1e-6 || math.Abs(pf[1]-0.125) > 1e-6 || math.Abs(pf[2]-0.5) > 1e-6 || pf[3] != 1 {
		t.Errorf("pressure_field round-trip = %v", pf)
	}
	sp := got["spray"]
	if math.Abs(sp[0]) > 1e-6 || math.Abs(sp[1]-0.5) > 1e-6 || sp[3] != 1 {
		t.Errorf("spray round-trip = %v", sp)
	}
}

func TestRunSummaryJSON(t *testing.T) {
	sum := &RunSummary{
		Ranks: 4, Elapsed: 2.5, MaxClockRank: 3,
		Regions: []RegionSummary{{Region: "solve", Compute: 2, Comm: 0.5, Calls: 10}},
		Comm:    &CommSummary{Messages: 12, Bytes: 960, Pairs: 6},
	}
	var buf strings.Builder
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunSummary
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if back.Ranks != 4 || back.Elapsed != 2.5 || back.Regions[0].Region != "solve" || back.Comm.Bytes != 960 {
		t.Errorf("round-trip = %+v", back)
	}
	if back.CriticalPath != nil {
		t.Errorf("absent critical path should stay nil, got %+v", back.CriticalPath)
	}
}
