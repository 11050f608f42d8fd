package mpi

import (
	"math"
	"testing"

	"cpx/internal/trace"
)

func tracedCfg() Config {
	cfg := testCfg()
	cfg.Trace = true
	return cfg
}

// imbalancedRing makes rank clocks diverge: each rank computes an amount
// growing with its rank, then passes a token around the ring twice so
// late ranks force waits on their successors.
func imbalancedRing(c *Comm) error {
	for round := 0; round < 2; round++ {
		c.ComputeSeconds(1e-3 * float64(c.Rank()+1))
		c.Send((c.Rank()+1)%c.Size(), round, []float64{float64(c.Rank())})
		c.Recv((c.Rank()+c.Size()-1)%c.Size(), round)
	}
	c.Allreduce([]float64{1}, Sum)
	return nil
}

func TestMergedProfileNilWhenProfilingOff(t *testing.T) {
	st := run(t, 2, func(c *Comm) error {
		c.ComputeSeconds(1e-3)
		return nil
	})
	if st.Profiles[0] != nil {
		t.Fatal("profiling off but Profiles populated")
	}
	if got := st.MergedProfile(); got != nil {
		t.Errorf("MergedProfile() = %v, want nil when profiling is off", got)
	}
	if st.Timelines != nil || st.CommMatrix != nil {
		t.Error("tracing off but Timelines/CommMatrix populated")
	}
}

func TestCriticalPathRequiresTrace(t *testing.T) {
	st := run(t, 2, func(c *Comm) error { return nil })
	if _, err := st.CriticalPath(); err == nil {
		t.Fatal("CriticalPath() without Config.Trace did not error")
	}
}

// TestTimelinesTileClock checks the tentpole invariant the critical-path
// walk relies on: every rank's events cover [0, clock] with no gaps.
func TestTimelinesTileClock(t *testing.T) {
	st, err := Run(4, tracedCfg(), imbalancedRing)
	if err != nil {
		t.Fatal(err)
	}
	for r, tl := range st.Timelines {
		if tl == nil {
			t.Fatalf("rank %d: nil timeline", r)
		}
		if tl.Dropped != 0 {
			t.Fatalf("rank %d dropped %d events", r, tl.Dropped)
		}
		prev := 0.0
		for i, ev := range tl.Events {
			if ev.T0 != prev {
				t.Fatalf("rank %d event %d: gap [%g,%g)", r, i, prev, ev.T0)
			}
			if ev.T1 < ev.T0 {
				t.Fatalf("rank %d event %d: negative span %+v", r, i, ev)
			}
			prev = ev.T1
		}
		if prev != st.Clocks[r] {
			t.Errorf("rank %d timeline ends at %g, clock is %g", r, prev, st.Clocks[r])
		}
	}
}

func TestCriticalPathSumsToElapsed(t *testing.T) {
	st, err := Run(4, tracedCfg(), imbalancedRing)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp.EndRank != st.MaxClockRank() {
		t.Errorf("EndRank = %d, MaxClockRank = %d", cp.EndRank, st.MaxClockRank())
	}
	if cp.Elapsed != st.Elapsed {
		t.Errorf("Elapsed = %g, Stats.Elapsed = %g", cp.Elapsed, st.Elapsed)
	}
	if diff := math.Abs(cp.Total() - st.Elapsed); diff > 1e-9 {
		t.Errorf("critical-path segments sum to %g, elapsed %g (diff %g)",
			cp.Total(), st.Elapsed, diff)
	}
	// Segments must be contiguous in time from 0 to Elapsed.
	prev := 0.0
	for i, s := range cp.Segments {
		if s.T0 != prev {
			t.Fatalf("segment %d starts at %g, previous ended at %g", i, s.T0, prev)
		}
		prev = s.T1
	}
	if prev != st.Elapsed {
		t.Errorf("path ends at %g, want %g", prev, st.Elapsed)
	}
}

// TestTraceOffTimingIdentical guards the acceptance criterion that
// enabling tracing must not perturb virtual time: the same program run
// with and without tracing yields bitwise-identical clocks.
func TestTraceOffTimingIdentical(t *testing.T) {
	plain, err := Run(4, testCfg(), imbalancedRing)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(4, tracedCfg(), imbalancedRing)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != traced.Elapsed {
		t.Errorf("Elapsed differs: plain %v traced %v", plain.Elapsed, traced.Elapsed)
	}
	for r := range plain.Clocks {
		if plain.Clocks[r] != traced.Clocks[r] {
			t.Errorf("rank %d clock differs: plain %v traced %v", r, plain.Clocks[r], traced.Clocks[r])
		}
		if plain.Compute[r] != traced.Compute[r] || plain.Comm[r] != traced.Comm[r] {
			t.Errorf("rank %d compute/comm split differs", r)
		}
	}
}

func TestCollectiveOpLabels(t *testing.T) {
	st, err := Run(4, tracedCfg(), func(c *Comm) error {
		c.Allreduce([]float64{float64(c.Rank())}, Sum)
		sub := c.RangeComm(c.Rank()/2, c.Rank()/2*2, 2)
		sub.Barrier()
		c.CheckpointSync(1e-6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, tl := range st.Timelines {
		for _, ev := range tl.Events {
			if ev.Op != "" {
				ops[ev.Op] = true
			}
		}
	}
	for _, want := range []string{"allreduce", "barrier", "checkpoint"} {
		if !ops[want] {
			t.Errorf("no event labelled %q; got ops %v", want, ops)
		}
	}
}

// TestOutermostOpLabelWins: CheckpointSync is built on an inner
// Allreduce, but the messages it sends must carry the outer "checkpoint"
// label, not the implementation detail.
func TestOutermostOpLabelWins(t *testing.T) {
	st, err := Run(3, tracedCfg(), func(c *Comm) error {
		c.CheckpointSync(1e-6 * float64(c.Rank()+1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range st.Timelines {
		sends := 0
		for _, ev := range tl.Events {
			if ev.Op != "checkpoint" {
				t.Errorf("rank %d: event inside CheckpointSync labelled %q", tl.Rank, ev.Op)
			}
			if ev.Kind == trace.EvSend {
				sends++
			}
		}
		if sends == 0 {
			t.Errorf("rank %d: the inner allreduce recorded no sends", tl.Rank)
		}
	}
}

func TestCommMatrixCounts(t *testing.T) {
	st, err := Run(3, tracedCfg(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3}) // 24 bytes
			c.Send(1, 1, []float64{4})       // 8 bytes
			c.Send(2, 0, []float64{5, 6})    // 16 bytes
		}
		switch c.Rank() {
		case 1:
			c.Recv(0, 0)
			c.Recv(0, 1)
		case 2:
			c.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := st.CommMatrix
	if m.Ranks != 3 || len(m.Edges) != 2 {
		t.Fatalf("matrix = %+v, want 2 edges over 3 ranks", m)
	}
	want := []trace.CommEdge{
		{Src: 0, Dst: 1, Messages: 2, Bytes: 32},
		{Src: 0, Dst: 2, Messages: 1, Bytes: 16},
	}
	for i, w := range want {
		if m.Edges[i] != w {
			t.Errorf("edge %d = %+v, want %+v", i, m.Edges[i], w)
		}
	}
}

func TestRunSummaryFromTracedRun(t *testing.T) {
	cfg := tracedCfg()
	st, err := Run(4, cfg, imbalancedRing)
	if err != nil {
		t.Fatal(err)
	}
	sum := st.Summary()
	if sum.Ranks != 4 || sum.Elapsed != st.Elapsed || sum.MaxClockRank != st.MaxClockRank() {
		t.Errorf("headline summary = %+v", sum)
	}
	if sum.CriticalPath == nil {
		t.Fatal("traced summary missing critical path")
	}
	if diff := math.Abs(sum.CriticalPath.Total - st.Elapsed); diff > 1e-9 {
		t.Errorf("summary path total %g vs elapsed %g", sum.CriticalPath.Total, st.Elapsed)
	}
	if sum.Comm == nil || sum.Comm.Messages == 0 {
		t.Errorf("traced summary missing comm section: %+v", sum.Comm)
	}
}

// TestTraceCapDegradesGracefully: an undersized event cap must count
// drops and make the critical-path analysis fail loudly, not truncate.
func TestTraceCapDegradesGracefully(t *testing.T) {
	cfg := tracedCfg()
	cfg.traceMaxEvents = 2
	st, err := Run(4, cfg, imbalancedRing)
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, tl := range st.Timelines {
		dropped += tl.Dropped
	}
	if dropped == 0 {
		t.Fatal("tiny cap dropped nothing")
	}
	if _, err := st.CriticalPath(); err == nil {
		t.Error("critical path on truncated timelines did not error")
	}
}
