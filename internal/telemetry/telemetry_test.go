package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// TestAdvanceProratesAcrossBoundaries: a single charge spanning several
// sample boundaries must emit one sample per boundary with the charge
// split linearly, and leave the cumulative totals exact.
func TestAdvanceProratesAcrossBoundaries(t *testing.T) {
	c := NewCollector(0, &Config{Interval: 1.0})
	c.Advance(0, 2.5, ChargeCompute) // crosses t=1 and t=2
	c.Advance(2.5, 3.0, ChargeComm)  // ends exactly on t=3
	if len(c.samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(c.samples))
	}
	wantCompute := []float64{1.0, 2.0, 2.5}
	wantComm := []float64{0, 0, 0.5}
	for i, s := range c.samples {
		if s.T != float64(i+1) {
			t.Errorf("sample %d at T=%v, want %v", i, s.T, float64(i+1))
		}
		if s.Compute != wantCompute[i] || s.Comm != wantComm[i] {
			t.Errorf("sample %d compute/comm = %v/%v, want %v/%v",
				i, s.Compute, s.Comm, wantCompute[i], wantComm[i])
		}
	}
	tot := c.cur
	if tot.Compute != 2.5 || tot.Comm != 0.5 || tot.T != 3.0 {
		t.Errorf("totals = %+v", tot)
	}
}

// TestSampleCapCountsDropped: past MaxSamples the collector stops
// storing but keeps exact cumulative totals and counts what it dropped.
func TestSampleCapCountsDropped(t *testing.T) {
	c := NewCollector(0, &Config{Interval: 1.0, MaxSamples: 2})
	c.Advance(0, 5.0, ChargeCompute) // boundaries 1..5
	if len(c.samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(c.samples))
	}
	if c.dropped != 3 {
		t.Errorf("dropped = %d, want 3", c.dropped)
	}
	if got := c.cur.Compute; got != 5.0 {
		t.Errorf("total compute = %v, want 5", got)
	}
}

// TestObserverSeesMonotoneProgress: live snapshots carry monotonically
// non-decreasing virtual time, including past the storage cap.
func TestObserverSeesMonotoneProgress(t *testing.T) {
	var ts []float64
	c := NewCollector(3, &Config{Interval: 1.0, MaxSamples: 2, Observer: func(rank int, s Sample) {
		if rank != 3 {
			t.Fatalf("observer rank = %d, want 3", rank)
		}
		ts = append(ts, s.T)
	}})
	c.Advance(0, 2.5, ChargeCompute)
	c.Advance(2.5, 4.5, ChargeComm)
	if len(ts) < 3 {
		t.Fatalf("observer called %d times, want >= 3", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Fatalf("observer T went backwards: %v", ts)
		}
	}
}

// TestFinalizeMailboxDepth: depth at a sample point is arrivals <= T
// minus receives completed by T, both recorded receiver-side.
func TestFinalizeMailboxDepth(t *testing.T) {
	cfg := &Config{Interval: 1.0}
	c0 := NewCollector(0, cfg) // sender
	c1 := NewCollector(1, cfg) // receiver
	// Rank 0 sends two messages to rank 1 arriving at t=0.5 and t=1.5.
	c0.Sent(8)
	c0.Sent(8)
	c0.Advance(0, 3.0, ChargeComm)
	// Rank 1 completes one receive before t=2, the second before t=3.
	c1.Advance(0, 1.8, ChargeWait)
	c1.Received(8, 0.5)
	c1.Advance(1.8, 2.2, ChargeWait)
	c1.Received(8, 1.5)
	c1.Advance(2.2, 3.0, ChargeCompute)

	rs := Finalize([]*Collector{c0, c1})
	depths := make([]int64, len(rs.Ranks[1].Samples))
	for i, s := range rs.Ranks[1].Samples {
		depths[i] = s.MailboxDepth
	}
	// t=1: one arrival, zero receives → 1. t=2: two arrivals, one
	// receive (completed at 1.8... wait, the first Received lands after
	// the sample at t=1.8? It lands at the rank clock 1.8, so by t=2 it
	// counts) → wait: receives at samples are the cumulative MsgsRecv at
	// the boundary. At t=2 the boundary sample was emitted mid-Advance
	// (1.8,2.2) *before* the second Received → MsgsRecv=1 → depth 1.
	// t=3: two arrivals, two receives → 0.
	want := []int64{1, 1, 0}
	if !reflect.DeepEqual(depths, want) {
		t.Errorf("depths = %v, want %v", depths, want)
	}
	for _, s := range rs.Ranks[1].Samples {
		if s.MailboxDepth < 0 {
			t.Errorf("negative mailbox depth at T=%v", s.T)
		}
	}
	if rs.Ranks[1].Totals.MailboxDepth != 0 {
		t.Errorf("final depth = %d, want 0", rs.Ranks[1].Totals.MailboxDepth)
	}
}

// TestAggregateBySumsAndPadsShortSeries: aggregation sums element-wise
// and carries a finished rank's last sample forward.
func TestAggregateBySumsAndPadsShortSeries(t *testing.T) {
	cfg := &Config{Interval: 1.0}
	c0 := NewCollector(0, cfg)
	c1 := NewCollector(1, cfg)
	c0.Advance(0, 1.0, ChargeCompute) // one sample
	c1.Advance(0, 2.0, ChargeCompute) // two samples
	rs := Finalize([]*Collector{c0, c1})
	agg := rs.AggregateBy(func(rank int) string { return "comp" })
	if len(agg) != 1 || agg[0].Label != "comp" || agg[0].Ranks != 2 {
		t.Fatalf("agg = %+v", agg)
	}
	if len(agg[0].Samples) != 2 {
		t.Fatalf("got %d aggregated samples, want 2", len(agg[0].Samples))
	}
	// t=1: 1+1. t=2: rank 0 carries its last sample (1) + rank 1's 2.
	if agg[0].Samples[0].Compute != 2.0 || agg[0].Samples[1].Compute != 3.0 {
		t.Errorf("aggregated compute = %v, %v; want 2, 3",
			agg[0].Samples[0].Compute, agg[0].Samples[1].Compute)
	}
	if agg[0].Totals.Compute != 3.0 || agg[0].Totals.T != 2.0 {
		t.Errorf("aggregated totals = %+v", agg[0].Totals)
	}
}

// TestWriteCSVShape: the CSV export has the documented header and one
// row per sample.
func TestWriteCSVShape(t *testing.T) {
	cfg := &Config{Interval: 1.0}
	c0 := NewCollector(0, cfg)
	c0.Advance(0, 2.0, ChargeCompute)
	rs := Finalize([]*Collector{c0})
	rs.Components = rs.AggregateBy(func(int) string { return "all" })
	var sb strings.Builder
	if err := rs.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.HasPrefix(lines[0], "series,rank,t,") {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+2+2 { // header + 2 rank rows + 2 component rows
		t.Errorf("got %d lines: %q", len(lines), sb.String())
	}
}
