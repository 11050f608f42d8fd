package trace

import (
	"math"
	"strings"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPushPopAttribution(t *testing.T) {
	p := NewProfile()
	p.Push("outer")
	p.AddCompute(1.0)
	p.Push("inner")
	p.AddCompute(2.0)
	p.AddComm(0.5)
	p.Pop()
	p.AddCompute(3.0)
	p.Pop()

	outer := p.Entry("outer")
	if !almostEq(outer.Compute, 4.0) {
		t.Errorf("outer compute = %v, want 4.0 (exclusive time)", outer.Compute)
	}
	inner := p.Entry("inner")
	if !almostEq(inner.Compute, 2.0) || !almostEq(inner.Comm, 0.5) {
		t.Errorf("inner = %+v, want compute 2.0 comm 0.5", inner)
	}
	if outer.Calls != 1 || inner.Calls != 1 {
		t.Errorf("call counts = %d,%d, want 1,1", outer.Calls, inner.Calls)
	}
}

func TestDefaultRegionIsOther(t *testing.T) {
	p := NewProfile()
	p.AddCompute(1.5)
	if got := p.Entry("other").Compute; !almostEq(got, 1.5) {
		t.Errorf("unscoped time went to %v in 'other', want 1.5", got)
	}
	if p.Current() != "other" {
		t.Errorf("Current() = %q, want other", p.Current())
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty stack did not panic")
		}
	}()
	NewProfile().Pop()
}

func TestEntryAbsentIsZero(t *testing.T) {
	p := NewProfile()
	if e := p.Entry("nope"); e.Compute != 0 || e.Comm != 0 || e.Calls != 0 {
		t.Errorf("absent entry = %+v, want zero", e)
	}
}

func TestMerge(t *testing.T) {
	a := NewProfile()
	a.Push("f")
	a.AddCompute(1)
	a.AddComm(2)
	a.Pop()
	b := NewProfile()
	b.Push("f")
	b.AddCompute(3)
	b.Pop()
	b.Push("g")
	b.AddComm(4)
	b.Pop()

	m := MergeAll([]*Profile{a, b, nil})
	if f := m.Entry("f"); !almostEq(f.Compute, 4) || !almostEq(f.Comm, 2) || f.Calls != 2 {
		t.Errorf("merged f = %+v", f)
	}
	if g := m.Entry("g"); !almostEq(g.Comm, 4) {
		t.Errorf("merged g = %+v", g)
	}
}

func TestReportSharesSumToOne(t *testing.T) {
	p := NewProfile()
	p.Push("a")
	p.AddCompute(3)
	p.Pop()
	p.Push("b")
	p.AddComm(1)
	p.Pop()
	total := 0.0
	for _, row := range p.Report() {
		total += row.TotalShare()
	}
	if !almostEq(total, 1.0) {
		t.Errorf("shares sum to %v, want 1", total)
	}
	rows := p.Report()
	if rows[0].Region != "a" {
		t.Errorf("report not sorted by share: first = %q", rows[0].Region)
	}
}

func TestReportEmpty(t *testing.T) {
	if rows := NewProfile().Report(); rows != nil {
		t.Errorf("empty profile report = %v, want nil", rows)
	}
}

func TestRegionsSorted(t *testing.T) {
	p := NewProfile()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		p.Push(n)
		p.AddCompute(1)
		p.Pop()
	}
	got := p.Regions()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Regions() = %v, want %v", got, want)
		}
	}
}

func TestStringContainsRegions(t *testing.T) {
	p := NewProfile()
	p.Push("pressure_field")
	p.AddCompute(1)
	p.Pop()
	if s := p.String(); !strings.Contains(s, "pressure_field") {
		t.Errorf("String() missing region: %s", s)
	}
}

func TestTotals(t *testing.T) {
	p := NewProfile()
	p.Push("x")
	p.AddCompute(2)
	p.AddComm(3)
	p.Pop()
	comp, comm := p.Total()
	if !almostEq(comp, 2) || !almostEq(comm, 3) {
		t.Errorf("Total() = %v,%v want 2,3", comp, comm)
	}
	if e := p.Entry("x"); !almostEq(e.Total(), 5) {
		t.Errorf("Entry.Total() = %v, want 5", e.Total())
	}
}

// TestTotalIsOrderFixed pins Total's summation order. Six regions whose
// magnitudes span eighteen decades make float addition order visible:
// summed in map order the same profile returned several bit patterns.
func TestTotalIsOrderFixed(t *testing.T) {
	p := NewProfile()
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		p.Push(name)
		p.AddCompute(math.Pow(10, float64(3*i-9)) / 3)
		p.AddComm(math.Pow(10, float64(9-3*i)) / 7)
		p.Pop()
	}
	wantCompute, wantComm := p.Total()
	for call := 0; call < 1000; call++ {
		if compute, comm := p.Total(); compute != wantCompute || comm != wantComm {
			t.Fatalf("call %d: Total() = %x, %x; first call gave %x, %x",
				call, math.Float64bits(compute), math.Float64bits(comm),
				math.Float64bits(wantCompute), math.Float64bits(wantComm))
		}
	}
}

func TestWriteCSV(t *testing.T) {
	p := NewProfile()
	p.Push("pressure_field")
	p.AddCompute(3)
	p.AddComm(1)
	p.Pop()
	var buf strings.Builder
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "region,compute_share") || !strings.Contains(out, "pressure_field,0.75") {
		t.Errorf("csv output wrong:\n%s", out)
	}
}
