package mpi

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

func metricsCfg(base Config) Config {
	base.Metrics = &telemetry.Config{Interval: 1e-4}
	return base
}

// TestMetricsDoNotPerturbRun is the telemetry acceptance test: enabling
// the sampler must leave every simulation output bitwise identical —
// clocks, accounting, per-rank results, event timelines, the comm
// matrix and the JSON run summary. The sampler observes charges; it
// never participates in them.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	const p = 8
	base := testCfg()
	base.Trace = true
	plain, plainSums := runMixed(t, p, base)
	sampled, sampledSums := runMixed(t, p, metricsCfg(base))

	assertStatsIdentical(t, "metrics off vs on", plain, sampled, plainSums, sampledSums)
	for r := range plain.Timelines {
		if !reflect.DeepEqual(plain.Timelines[r], sampled.Timelines[r]) {
			t.Errorf("rank %d timeline differs with metrics on", r)
		}
	}
	if !reflect.DeepEqual(plain.CommMatrix, sampled.CommMatrix) {
		t.Error("comm matrix differs with metrics on")
	}
	// The summary JSON must also match: the sampler feeds Stats.Metrics,
	// not the summary, so the artifact is byte-identical.
	if a, b := traceSummaryJSON(t, plain), traceSummaryJSON(t, sampled); a != b {
		t.Errorf("run summaries differ:\nplain:   %s\nsampled: %s", a, b)
	}
	if sampled.Metrics == nil || len(sampled.Metrics.Ranks) != p {
		t.Fatalf("sampled run carries no metrics series: %+v", sampled.Metrics)
	}
	if plain.Metrics != nil {
		t.Error("unsampled run carries a metrics series")
	}
}

// TestMetricsSeriesIdenticalAcrossHostParallelism extends the
// reproducibility contract to the series themselves: the sampled
// time-series is a pure function of virtual time, so GOMAXPROCS=1 and
// full host parallelism must produce identical samples on both
// collective paths.
func TestMetricsSeriesIdenticalAcrossHostParallelism(t *testing.T) {
	const p = 8
	for _, ref := range []collFunc{nil, messageLevel} {
		cfg := metricsCfg(testCfg())
		parallel, _ := runMixedOn(t, p, cfg, ref)
		prev := runtime.GOMAXPROCS(1)
		serial, _ := runMixedOn(t, p, cfg, ref)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(parallel.Metrics, serial.Metrics) {
			t.Errorf("reference=%v: metrics series differ between host parallelism levels", ref != nil)
		}
	}
}

// TestMetricsSeriesInvariants checks the structural guarantees of a
// finalized series: samples sit on the virtual-time grid, cumulative
// fields never decrease, mailbox depth is never negative, and totals
// dominate the last stored sample.
func TestMetricsSeriesInvariants(t *testing.T) {
	const p = 8
	cfg := metricsCfg(testCfg())
	st, _ := runMixed(t, p, cfg)
	if st.Metrics == nil {
		t.Fatal("no metrics series")
	}
	if st.Metrics.Interval != cfg.Metrics.Interval {
		t.Errorf("series interval = %v, want %v", st.Metrics.Interval, cfg.Metrics.Interval)
	}
	for _, rank := range st.Metrics.Ranks {
		var prev telemetry.Sample
		for i, s := range rank.Samples {
			if want := float64(i+1) * cfg.Metrics.Interval; s.T != want {
				t.Errorf("rank %d sample %d at T=%v, want grid point %v", rank.Rank, i, s.T, want)
			}
			if s.Compute < prev.Compute || s.Comm < prev.Comm || s.Wait < prev.Wait ||
				s.MsgsSent < prev.MsgsSent || s.MsgsRecv < prev.MsgsRecv ||
				s.BytesSent < prev.BytesSent || s.BytesRecv < prev.BytesRecv ||
				s.Collectives < prev.Collectives {
				t.Errorf("rank %d sample %d regressed a cumulative counter", rank.Rank, i)
			}
			if s.MailboxDepth < 0 {
				t.Errorf("rank %d sample %d mailbox depth %d < 0", rank.Rank, i, s.MailboxDepth)
			}
			prev = s
		}
		tot := rank.Totals
		if tot.Compute < prev.Compute || tot.MsgsSent < prev.MsgsSent || tot.T < prev.T {
			t.Errorf("rank %d totals %+v behind last sample %+v", rank.Rank, tot, prev)
		}
		if tot.Compute+tot.Comm+tot.Wait == 0 {
			t.Errorf("rank %d recorded no time at all", rank.Rank)
		}
	}
}

// TestMetricsCollectiveCountParity: the replayed collectives move no
// real messages, yet both paths must agree on how many collectives each
// rank entered and on every message and byte it sent and received.
func TestMetricsCollectiveCountParity(t *testing.T) {
	for _, p := range []int{2, 5, 8} {
		ref, _ := runMixedOn(t, p, metricsCfg(testCfg()), messageLevel)
		replay, _ := runMixed(t, p, metricsCfg(testCfg()))
		for r := range ref.Metrics.Ranks {
			want, got := ref.Metrics.Ranks[r].Totals, replay.Metrics.Ranks[r].Totals
			if got != want {
				t.Errorf("p=%d rank %d totals: replay %+v, message-level %+v", p, r, got, want)
			}
			if want.Collectives == 0 || want.MsgsSent == 0 {
				t.Errorf("p=%d rank %d counted nothing: %+v", p, r, want)
			}
		}
	}
}

// TestMetricsObserverStreamsLiveProgress: the observer fires during the
// run with monotonically non-decreasing per-rank virtual time — the
// feed the serving layer turns into SSE progress events.
func TestMetricsObserverStreamsLiveProgress(t *testing.T) {
	const p = 4
	last := make([]float64, p)
	calls := make([]int, p)
	cfg := testCfg()
	cfg.Metrics = &telemetry.Config{Interval: 1e-4, Observer: func(rank int, s telemetry.Sample) {
		// Called from the rank's own goroutine, or from a replay leader
		// while that rank is parked under the station lock: per-rank
		// slots need no lock of their own.
		if s.T < last[rank] {
			t.Errorf("rank %d observer T went backwards: %v -> %v", rank, last[rank], s.T)
		}
		last[rank] = s.T
		calls[rank]++
	}}
	sums := make([]float64, p)
	if _, err := Run(p, cfg, mixedProgram(sums)); err != nil {
		t.Fatal(err)
	}
	for r, n := range calls {
		if n == 0 {
			t.Errorf("rank %d observer never fired", r)
		}
	}
}

// TestFlightRecorderDumpsCrashedRankTail: when a fault plan kills ranks,
// the partial Stats must carry a flight-recorder tail for every crashed
// rank, chronologically ordered and ending at or before the death time.
func TestFlightRecorderDumpsCrashedRankTail(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.5}}}
	st, err := Run(2, faultCfg(plan), func(c *Comm) error {
		for i := 0; i < 8; i++ {
			c.ComputeSeconds(0.1) // rank 1 dies at t=0.5, mid loop
			peer := 1 - c.Rank()
			c.Send(peer, i, []float64{float64(i)})
			c.Recv(peer, i)
			c.Barrier()
		}
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want *fault.RanksFailed", err)
	}
	if st == nil || len(st.Flight) == 0 {
		t.Fatal("failed run carries no flight-recorder tails")
	}
	byRank := map[int]telemetry.RankTail{}
	for _, tail := range st.Flight {
		byRank[tail.Rank] = tail
	}
	for _, r := range rf.Crashed {
		tail, ok := byRank[r]
		if !ok {
			t.Fatalf("no flight tail for crashed rank %d (have %+v)", r, byRank)
		}
		if tail.FailedAt != rf.FailedAt {
			t.Errorf("rank %d tail FailedAt = %v, want %v", r, tail.FailedAt, rf.FailedAt)
		}
		if len(tail.Events) == 0 {
			t.Errorf("rank %d tail has no events", r)
		}
		if tail.Total < uint64(len(tail.Events)) {
			t.Errorf("rank %d total %d < retained %d", r, tail.Total, len(tail.Events))
		}
		prev := -1.0
		for i, ev := range tail.Events {
			if ev.T < prev {
				t.Errorf("rank %d event %d out of order: %v after %v", r, i, ev.T, prev)
			}
			prev = ev.T
			if ev.T > tail.FailedAt {
				t.Errorf("rank %d event %d at t=%v after death at %v", r, i, ev.T, tail.FailedAt)
			}
			if ev.Kind == "" {
				t.Errorf("rank %d event %d has no kind", r, i)
			}
		}
	}
	// The summary must surface the tails so cpxsim's partial JSON
	// artifact carries them without extra plumbing.
	if sum := st.Summary(); len(sum.Flight) != len(st.Flight) {
		t.Errorf("summary carries %d tails, stats %d", len(sum.Flight), len(st.Flight))
	}
	// A healthy run must not allocate recorders or dump tails.
	ok, err2 := Run(2, testCfg(), func(c *Comm) error { return nil })
	if err2 != nil {
		t.Fatal(err2)
	}
	if ok.Flight != nil {
		t.Errorf("healthy run carries flight tails: %+v", ok.Flight)
	}
}

// TestFlightTailsGolden pins, byte for byte, the run summary of a crash
// that every kind of flight event leads up to: ring Send/Recv, a RecvAll
// gather at rank 0, and a CheckpointSync every third step (its events
// labelled "checkpoint", not "allreduce"). Rank 0 dies mid-run and the
// others detect it in cascade; each rank records more events than its
// ring keeps, so every tail is its newest flightDepth.
func TestFlightTailsGolden(t *testing.T) {
	cfg := faultCfg(&fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 0.8}}})
	cfg.Trace = true
	st, err := Run(4, cfg, func(c *Comm) error {
		p, r := c.Size(), c.Rank()
		for i := 0; i < 40; i++ {
			c.ComputeSeconds(0.01 * float64(1+r))
			c.Send((r+1)%p, i, []float64{float64(i)})
			c.Recv((r+p-1)%p, i)
			if r == 0 {
				c.RecvAll(p-1, 1000+i)
			} else {
				c.Send(0, 1000+i, []float64{float64(r)})
			}
			if i%3 == 2 {
				c.CheckpointSync(0.001)
			}
		}
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want *fault.RanksFailed", err)
	}
	var got bytes.Buffer
	if err := st.Summary().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/flight_tails.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("summary differs from testdata/flight_tails.json:\n%s", got.Bytes())
	}
}

// TestFlightRecorderExplicitCapacity: flightEvents > 0 arms the recorder
// without a fault plan, so watchdog/cancel aborts also leave a trail;
// the ring must retain only the last flightEvents events.
func TestFlightRecorderExplicitCapacity(t *testing.T) {
	cfg := testCfg()
	cfg.flightEvents = 4
	cancel := make(chan struct{})
	close(cancel) // abort immediately: first blocking op unwinds
	cfg.Cancel = cancel
	st, err := Run(2, cfg, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			peer := 1 - c.Rank()
			c.Send(peer, i, []float64{1})
			c.Recv(peer, i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if st == nil || len(st.Flight) == 0 {
		t.Fatal("cancelled run carries no flight tails")
	}
	for _, tail := range st.Flight {
		if len(tail.Events) > 4 {
			t.Errorf("rank %d retained %d events, capacity 4", tail.Rank, len(tail.Events))
		}
	}

	// The cancelled run's length depends on when the abort lands, so the
	// retained events are checked on a run that fails only once both
	// ranks are done: at depth 4 they must be the last four of the same
	// run at depth 64, which keeps them all.
	tails := map[int][]telemetry.RankTail{}
	for _, depth := range []int{4, 64} {
		cfg := testCfg()
		cfg.flightEvents = depth
		st, err := Run(2, cfg, func(c *Comm) error {
			for i := 0; i < 10; i++ {
				peer := 1 - c.Rank()
				c.Send(peer, i, []float64{1})
				c.Recv(peer, i)
			}
			return errors.New("dump the tails")
		})
		if err == nil || len(st.Flight) != 2 {
			t.Fatalf("depth %d: err = %v, %d tails; want a failure with 2", depth, err, len(st.Flight))
		}
		tails[depth] = st.Flight
	}
	for r, short := range tails[4] {
		full := tails[64][r].Events
		if n := len(full) - 4; n < 0 || !reflect.DeepEqual(short.Events, full[n:]) {
			t.Errorf("rank %d keeps %+v, want the last four of %+v", r, short.Events, full)
		}
		if short.Total != uint64(len(full)) || tails[64][r].Total != uint64(len(full)) {
			t.Errorf("rank %d totals %d and %d, want the run's %d events", r, short.Total, tails[64][r].Total, len(full))
		}
	}
}

// TestSendKilledByItsOverheadIsNotCounted: a rank that dies while paying
// a send's CPU overhead never sends, so the message enters no comm-matrix
// cell, no sent counter and no flight tail, though the truncated charge
// itself is on the rank's timeline.
func TestSendKilledByItsOverheadIsNotCounted(t *testing.T) {
	m := cluster.SmallCluster()
	cfg := metricsCfg(faultCfg(&fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 1 + m.SendOverhead/2}}}))
	cfg.Trace = true
	st, err := Run(2, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.ComputeSeconds(1)
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
		}
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want *fault.RanksFailed", err)
	}
	if evs := st.Timelines[0].Events; evs[len(evs)-1].Kind != trace.EvSend {
		t.Errorf("rank 0 ends on %v, want the truncated send charge", evs[len(evs)-1].Kind)
	}
	if len(st.CommMatrix.Edges) != 0 {
		t.Errorf("comm matrix %+v, want no message", st.CommMatrix.Edges)
	}
	if sent := st.Metrics.Ranks[0].Totals.MsgsSent; sent != 0 {
		t.Errorf("rank 0 sent %d messages, want 0", sent)
	}
	for _, tail := range st.Flight {
		for _, ev := range tail.Events {
			if ev.Kind == "send" {
				t.Errorf("rank %d tail records %+v", tail.Rank, ev)
			}
		}
	}
}

// TestObservedChargesAllocateNothing: with every view armed — timeline,
// comm matrix, metrics (no sample boundary inside the run) and the
// flight ring — a warmed compute or comm charge allocates nothing.
func TestObservedChargesAllocateNothing(t *testing.T) {
	cfg := metricsCfg(testCfg())
	cfg.Metrics.Interval = 1e9
	cfg.Trace = true
	cfg.flightEvents = 8
	if _, err := Run(1, cfg, func(c *Comm) error {
		c.ComputeSeconds(1e-6)
		c.ChargeCommSeconds(1e-6)
		if n := testing.AllocsPerRun(100, func() { c.ComputeSeconds(1e-6) }); n != 0 {
			t.Errorf("ComputeSeconds allocates %v per call", n)
		}
		if n := testing.AllocsPerRun(100, func() { c.ChargeCommSeconds(1e-6) }); n != 0 {
			t.Errorf("ChargeCommSeconds allocates %v per call", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
