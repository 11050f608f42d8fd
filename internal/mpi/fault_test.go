package mpi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/trace"
)

func faultCfg(p *fault.Plan) Config {
	return Config{Machine: cluster.SmallCluster(), Faults: p}
}

// TestCrashSurfacesAsRanksFailed: a receive from a crashed rank unwinds
// with a RankFailure after the modelled detection latency instead of
// leaving the run stuck, and Run reports the whole episode as
// *fault.RanksFailed.
func TestCrashSurfacesAsRanksFailed(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.5}}}
	detected := make([]float64, 2)
	st, err := Run(2, faultCfg(plan), func(c *Comm) error {
		if c.Rank() == 0 {
			c.ComputeSeconds(0.1) // blocks in Recv well before the death
			c.Recv(1, 3)
		} else {
			c.ComputeSeconds(1.0) // dies at t=0.5 inside this charge
			c.Send(0, 3, []float64{1})
		}
		detected[c.Rank()] = c.Clock()
		return nil
	})
	if err == nil {
		t.Fatal("run with a killed rank succeeded")
	}
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v (%T), want *fault.RanksFailed", err, err)
	}
	if len(rf.Crashed) != 1 || rf.Crashed[0] != 1 || rf.FailedAt != 0.5 {
		t.Fatalf("RanksFailed = %+v, want rank 1 at t=0.5", rf)
	}
	if len(rf.Detections) != 1 {
		t.Fatalf("detections = %+v, want one (rank 0's)", rf.Detections)
	}
	d := rf.Detections[0]
	if d.Rank != 1 || d.FailedAt != 0.5 {
		t.Errorf("detection %+v, want rank 1 failed at 0.5", d)
	}
	if want := 0.5 + plan.Detection(); d.DetectedAt != want {
		t.Errorf("DetectedAt = %v, want failure + detection latency = %v", d.DetectedAt, want)
	}
	// Partial stats must still come back for trace hardening.
	if st == nil {
		t.Fatal("no partial stats on a failed run")
	}
	if st.Clocks[1] != 0.5 {
		t.Errorf("dead rank clock = %v, want clamped to crash time 0.5", st.Clocks[1])
	}
}

// TestCrashClampsMidCompute: the dying rank's clock can never pass its
// crash timestamp, whatever charge was in flight.
func TestCrashClampsMidCompute(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 0.25}}}
	st, err := Run(1, faultCfg(plan), func(c *Comm) error {
		c.ComputeSeconds(10)
		t.Error("rank survived past its crash time")
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want RanksFailed", err)
	}
	if st.Clocks[0] != 0.25 {
		t.Errorf("clock = %v, want exactly 0.25", st.Clocks[0])
	}
}

// TestPendingMessagesWinOverDeath: a rank that sends and then dies still
// delivers; only the receive with no pending message fails. This is what
// keeps detection deterministic under host scheduling.
func TestPendingMessagesWinOverDeath(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.5}}}
	_, err := Run(2, faultCfg(plan), func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 1, []float64{42}) // departs ~t=0, well before death
			c.ComputeSeconds(1)         // dies here
			return nil
		}
		c.ComputeSeconds(2) // ensure the message arrived and rank 1 is long dead
		data, _, _ := c.Recv(1, 1)
		if data[0] != 42 {
			t.Errorf("payload %v, want the dead rank's 42", data[0])
		}
		// Second receive has nothing pending: must fail, not deadlock.
		c.Recv(1, 2)
		t.Error("receive from dead rank with no pending message returned")
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want RanksFailed", err)
	}
}

// TestCollectiveSurvivorsUnwind: a crash inside an allreduce unwinds
// every survivor rather than deadlocking the tree.
func TestCollectiveSurvivorsUnwind(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: 0.1}}}
	start := time.Now()
	_, err := Run(8, faultCfg(plan), func(c *Comm) error {
		c.ComputeSeconds(0.2)
		for i := 0; i < 4; i++ {
			c.AllreduceScalar(float64(c.Rank()), Sum)
		}
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want RanksFailed", err)
	}
	if host := time.Since(start); host > 10*time.Second {
		t.Errorf("unwinding took %v of host time: detection is not working", host)
	}
}

// TestFaultRunsDeterministic: two identical faulty runs observe
// bitwise-identical clocks and detections.
func TestFaultRunsDeterministic(t *testing.T) {
	plan, err := fault.NewPlan(fault.Spec{
		Seed: 11, Ranks: 6, Horizon: 2, MTBF: 0.8,
		StragglerEvery: 0.5, LinkEvery: 0.7, Machine: cluster.SmallCluster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *Comm) error {
		for i := 0; i < 20; i++ {
			c.ComputeSeconds(0.01)
			c.Send((c.Rank()+1)%c.Size(), 1, []float64{float64(i)})
			c.Recv((c.Rank()+c.Size()-1)%c.Size(), 1)
		}
		return nil
	}
	st1, err1 := Run(6, faultCfg(plan), prog)
	st2, err2 := Run(6, faultCfg(plan), prog)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcomes differ: %v vs %v", err1, err2)
	}
	for r := range st1.Clocks {
		if st1.Clocks[r] != st2.Clocks[r] {
			t.Errorf("rank %d clock %v != %v across identical runs", r, st1.Clocks[r], st2.Clocks[r])
		}
	}
	var rf1, rf2 *fault.RanksFailed
	if errors.As(err1, &rf1) && errors.As(err2, &rf2) {
		if len(rf1.Crashed) != len(rf2.Crashed) || rf1.FailedAt != rf2.FailedAt {
			t.Errorf("failure reports differ: %+v vs %+v", rf1, rf2)
		}
	}
}

// TestStragglerStretchesElapsed: a straggler window slows the run by a
// deterministic amount; without faults the plan is a bitwise no-op.
func TestStragglerStretchesElapsed(t *testing.T) {
	prog := func(c *Comm) error {
		for i := 0; i < 10; i++ {
			c.ComputeSeconds(0.05)
			c.Barrier()
		}
		return nil
	}
	clean, err := Run(4, faultCfg(nil), prog)
	if err != nil {
		t.Fatal(err)
	}
	// An empty plan must not perturb a single bit.
	empty, err := Run(4, faultCfg(&fault.Plan{}), prog)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Elapsed != clean.Elapsed {
		t.Errorf("empty plan changed elapsed: %v != %v", empty.Elapsed, clean.Elapsed)
	}
	slow, err := Run(4, faultCfg(&fault.Plan{
		Stragglers: []fault.Straggler{{Node: -1, Factor: 3, From: 0, To: 100}},
	}), prog)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= clean.Elapsed {
		t.Errorf("straggler run %v not slower than clean %v", slow.Elapsed, clean.Elapsed)
	}
}

// TestLinkFaultSlowsMessages: a degraded epoch stretches transfer times
// for messages departing inside it.
func TestLinkFaultSlowsMessages(t *testing.T) {
	prog := func(c *Comm) error {
		buf := make([]float64, 1<<14)
		if c.Rank() == 0 {
			c.Send(c.Size()-1, 1, buf)
		} else if c.Rank() == c.Size()-1 {
			c.Recv(0, 1)
		}
		return nil
	}
	m := cluster.SmallCluster()
	clean, err := Run(m.CoresPerNode+1, faultCfg(nil), prog)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(m.CoresPerNode+1, faultCfg(&fault.Plan{
		LinkFaults: []fault.LinkFault{{Node: -1, From: 0, To: 10, Alpha: 10, Beta: 10}},
	}), prog)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= clean.Elapsed {
		t.Errorf("degraded run %v not slower than clean %v", slow.Elapsed, clean.Elapsed)
	}
}

// TestCheckpointSyncAlignsClocks: after CheckpointSync every rank holds
// the identical synchronized time maxClock + maxCost.
func TestCheckpointSyncAlignsClocks(t *testing.T) {
	times := make([]float64, 4)
	st, err := Run(4, faultCfg(nil), func(c *Comm) error {
		c.ComputeSeconds(float64(c.Rank()) * 0.1) // skewed clocks
		cost := 0.0
		if c.Rank() == 2 {
			cost = 0.5 // one rank writes a big snapshot
		}
		times[c.Rank()] = c.CheckpointSync(cost)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if times[r] != times[0] {
			t.Errorf("rank %d sync time %v != rank 0's %v", r, times[r], times[0])
		}
	}
	for r := 0; r < 4; r++ {
		if st.Clocks[r] < times[0] {
			t.Errorf("rank %d clock %v below sync time %v", r, st.Clocks[r], times[0])
		}
	}
}

// TestResetClockRestartJump: the restart primitive lands on exactly the
// requested time going forward and backward.
func TestResetClockRestartJump(t *testing.T) {
	st, err := Run(1, faultCfg(nil), func(c *Comm) error {
		c.ResetClock(3.25)
		if c.Clock() != 3.25 {
			t.Errorf("forward reset clock = %v, want 3.25", c.Clock())
		}
		c.ResetClock(1.5)
		if c.Clock() != 1.5 {
			t.Errorf("backward reset clock = %v, want 1.5", c.Clock())
		}
		c.ComputeSeconds(0.5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Elapsed != 2.0 {
		t.Errorf("elapsed = %v, want 2.0", st.Elapsed)
	}
}

// TestResetClockIntoCrashKills: a restart jump that crosses the rank's
// scheduled crash time kills it (the plan owns virtual time, not the
// restart logic).
func TestResetClockIntoCrashKills(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 1.0}}}
	_, err := Run(1, faultCfg(plan), func(c *Comm) error {
		c.ResetClock(2.0)
		t.Error("rank survived a reset across its crash time")
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want RanksFailed", err)
	}
}

// TestFaultPlanDoesNotSelectCollectivePath: a fault plan changes what
// can happen to a rank, not how collectives are computed. A crash still
// surfaces through one; a stuck barrier is still parked at its station;
// and a plan that never fires is bitwise the plan-less run.
func TestFaultPlanDoesNotSelectCollectivePath(t *testing.T) {
	_, err := Run(4, faultCfg(&fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.05}}}), func(c *Comm) error {
		c.ComputeSeconds(0.1)
		c.AllreduceScalar(1, Sum)
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want RanksFailed (the crash must surface through the collective)", err)
	}

	never := &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 1e300}}}
	if msg := stuckBarrier(t, faultCfg(never)); !strings.Contains(msg, "2 of 3 in Barrier") {
		t.Errorf("under a fault plan the stuck verdict found %q, want the ranks parked at the station", msg)
	}

	// The never-firing plan changes nothing else: bitwise the plan-less run.
	plain, plainSums := runMixed(t, 13, testCfg())
	sums := make([]float64, 13)
	planned, err := Run(13, faultCfg(never), mixedProgram(sums))
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, "no plan vs never-firing plan", plain, planned, plainSums, sums)
}

// TestPartialRunExportsSafely: a crashed traced run must still yield
// stats whose exporters (Chrome trace, comm-matrix CSV, JSON summary)
// produce well-formed output rather than panicking on the partial data.
func TestPartialRunExportsSafely(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.2}}}
	cfg := faultCfg(plan)
	cfg.Trace = true
	st, err := Run(2, cfg, func(c *Comm) error {
		c.ComputeSeconds(0.5)
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("run with a killed rank succeeded")
	}
	if st == nil {
		t.Fatal("no partial stats")
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, st.Timelines); err != nil {
		t.Fatalf("partial Chrome trace: %v", err)
	}
	buf.Reset()
	if err := st.CommMatrix.WriteCSV(&buf); err != nil {
		t.Fatalf("partial comm CSV: %v", err)
	}
	buf.Reset()
	if err := st.Summary().WriteJSON(&buf); err != nil {
		t.Fatalf("partial summary: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("partial summary is not valid JSON")
	}

	// Zero-value stats (a run that died before charging anything) must
	// summarize without dividing by zero or indexing empty slices.
	empty := (&Stats{}).Summary()
	if empty.AvgCompute != 0 || empty.AvgComm != 0 {
		t.Errorf("empty stats averages = %v/%v, want 0/0", empty.AvgCompute, empty.AvgComm)
	}
}

// TestAnySourceRecvDetectsDeadPeers is the regression test for the
// wildcard dead-check: an AnySource receive used to pass a nil probe
// into the mailbox wait and could block forever on a crashed peer. It
// must now fail once every other communicator member is dead, with the
// detection anchored to the last death.
func TestAnySourceRecvDetectsDeadPeers(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.25}, {Rank: 2, At: 0.5}}}
	prog := func(detected []float64) func(c *Comm) error {
		return func(c *Comm) error {
			if c.Rank() == 0 {
				c.Recv(AnySource, 3) // no survivor ever sends
				return nil
			}
			c.ComputeSeconds(1.0) // both peers die mid-compute
			c.Send(0, 3, []float64{1})
			return nil
		}
	}
	detected := make([]float64, 3)
	st, err := Run(3, faultCfg(plan), prog(detected))
	if err == nil {
		t.Fatalf("wildcard receive from dead peers succeeded")
	}
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v (%T), want *fault.RanksFailed", err, err)
	}
	if len(rf.Detections) != 1 {
		t.Fatalf("detections = %+v, want one (rank 0's)", rf.Detections)
	}
	d := rf.Detections[0]
	// The failure that completes the wildcard condition is the last
	// death (rank 2 at t=0.5); detection follows the modelled latency.
	if d.Rank != 2 || d.FailedAt != 0.5 {
		t.Errorf("detection %+v, want rank 2 failed at 0.5", d)
	}
	if want := 0.5 + plan.Detection(); d.DetectedAt != want {
		t.Errorf("DetectedAt = %v, want %v", d.DetectedAt, want)
	}
	if st == nil {
		t.Fatal("no partial stats")
	}
}

// TestAnySourceRecvStillDrainsLiveSenders: the wildcard dead-check must
// not fire while any potential sender is alive — a live rank's later
// send must be received normally even though another peer is already
// dead, and a dead rank's pre-death send must still win over its death.
func TestAnySourceRecvStillDrainsLiveSenders(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.2}}}
	cfg := faultCfg(plan)
	got := make([]float64, 3)
	_, err := Run(3, cfg, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			d, src, _ := c.Recv(AnySource, 9)
			got[0] = d[0] + 100*float64(src)
		case 1:
			c.ComputeSeconds(0.1) // sends before its death at 0.2
			c.Send(0, 9, []float64{7})
			c.ComputeSeconds(1.0) // dies here
		case 2:
			c.ComputeSeconds(2.0) // outlives everything, sends nothing
		}
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want *fault.RanksFailed (rank 1 still crashes)", err)
	}
	if len(rf.Detections) != 0 {
		t.Errorf("unexpected detections %+v; the wildcard receive was satisfied by a real message", rf.Detections)
	}
	if got[0] != 7+100*1 {
		t.Errorf("rank 0 received %v, want payload 7 from source 1", got[0])
	}
}

// TestRecvAllDetectsDeadPeers: the Waitall-style drain passes the same
// wildcard dead-check, so a crashed sender fails the wait instead of
// leaving the run stuck.
func TestRecvAllDetectsDeadPeers(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 0.25}, {Rank: 2, At: 0.3}}}
	cfg := faultCfg(plan)
	_, err := Run(3, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.RecvAll(2, 4) // peers die before sending
			return nil
		}
		c.ComputeSeconds(1.0)
		c.Send(0, 4, []float64{1})
		return nil
	})
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("err = %v, want *fault.RanksFailed", err)
	}
	if len(rf.Detections) != 1 || rf.Detections[0].Rank != 2 {
		t.Errorf("detections = %+v, want rank 0 detecting the last death (rank 2)", rf.Detections)
	}
}

// collectiveOps are the op labels the events of a replayed collective
// carry (the allreduce inside CheckpointSync is labelled "checkpoint").
var collectiveOps = map[string]bool{"barrier": true, "bcast": true, "allreduce": true, "checkpoint": true}

// crashSites are the places in mixedProgram a crash can land that the
// fault-aware replay must handle, as crashSite names them.
var crashSites = []string{"before a collective", "send charge", "wait", "dead Bcast root", "dead fold rank"}

// crashSite names where in world rank r's (of p) timeline a crash inside
// event tl[i] lands, or "" for a site outside crashSites.
func crashSite(tl []trace.Event, i, r, p int) string {
	e := tl[i]
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	switch {
	case e.Kind == trace.EvCompute:
		return "before a collective" // mixedProgram enters one after every compute
	case !collectiveOps[e.Op]:
		return ""
	case e.Op == "bcast" && e.Kind == trace.EvSend && bcastRoot(tl, i):
		return "dead Bcast root"
	case (e.Op == "allreduce" || e.Op == "checkpoint") && r >= pow2 && e.Peer == r-pow2:
		return "dead fold rank" // a world-communicator rank past the largest power of two
	case e.Kind == trace.EvSend:
		return "send charge"
	case e.Kind == trace.EvWait:
		return "wait"
	}
	return ""
}

// bcastRoot reports whether the Bcast event tl[i] is the root's, the one
// member that sends without receiving first.
func bcastRoot(tl []trace.Event, i int) bool {
	for ; i >= 0 && tl[i].Op == "bcast"; i-- {
		if tl[i].Kind == trace.EvRecv || tl[i].Kind == trace.EvWait {
			return false
		}
	}
	return true
}

// faultPlans are the plans mixedProgram is run under on p ranks: single
// crashes in the middle of events of every crash site and spread over the
// whole run, pairs of simultaneous crashes on two ranks, and one
// generated plan with stragglers and degraded links. A single crash
// leaves its rank's timeline untouched up to the crash, so the events of
// a plan-less traced run tell where each lands.
func faultPlans(t *testing.T, p int) []*fault.Plan {
	t.Helper()
	cfg := testCfg()
	cfg.Trace = true
	clean, _ := runMixed(t, p, cfg)
	type point struct {
		rank int
		at   float64
	}
	var all []point
	bySite := map[string][]point{}
	for r, tl := range clean.Timelines {
		for i, e := range tl.Events {
			if e.T1 > e.T0 {
				pt := point{r, (e.T0 + e.T1) / 2}
				all = append(all, pt)
				if site := crashSite(tl.Events, i, r, p); site != "" {
					bySite[site] = append(bySite[site], pt)
				}
			}
		}
	}
	spread := func(pts []point, n int) []point {
		if len(pts) <= n {
			return pts
		}
		out := make([]point, n)
		for i := range out {
			out[i] = pts[i*len(pts)/n]
		}
		return out
	}
	var plans []*fault.Plan
	for _, site := range crashSites {
		for _, pt := range spread(bySite[site], 4) {
			plans = append(plans, &fault.Plan{Crashes: []fault.Crash{{Rank: pt.rank, At: pt.at}}})
		}
	}
	for _, pt := range spread(all, 12) {
		plans = append(plans, &fault.Plan{Crashes: []fault.Crash{{Rank: pt.rank, At: pt.at}}})
	}
	for _, pt := range spread(all, 8) {
		plans = append(plans, &fault.Plan{Crashes: []fault.Crash{
			{Rank: pt.rank, At: pt.at}, {Rank: (pt.rank + p/2 + 1) % p, At: pt.at}}})
	}
	gen, err := fault.NewPlan(fault.Spec{
		Seed: int64(p), Ranks: p, Horizon: clean.Elapsed, MTBF: clean.Elapsed / 2,
		StragglerEvery: clean.Elapsed / 4, LinkEvery: clean.Elapsed / 4, Machine: cluster.SmallCluster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(plans, gen)
}

// TestFaultReplayMatchesMessageLevelReference is the differential test of
// the one collective path under fault plans: whichever ranks die and
// wherever, the replay and real messages agree on every clock, result,
// failure report (detections and their times included) and recorded
// artifact, at every host parallelism and under every observer. It also
// shows what the plans covered: deaths at every crash site, and failure
// detections two hops from the crash.
func TestFaultReplayMatchesMessageLevelReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs, obs := []int{1, 2, 8}, observers
	if testing.Short() {
		// Every plan still runs, traced, so the coverage check holds.
		procs, obs = []int{2}, observers[2:3]
	}
	covered := map[string]bool{}
	nPlans := 0
	for _, p := range []int{2, 3, 5, 8, 13} {
		plans := faultPlans(t, p)
		nPlans += len(plans)
		for _, gmp := range procs {
			runtime.GOMAXPROCS(gmp)
			for _, o := range obs {
				for k, plan := range plans {
					label := fmt.Sprintf("p=%d/GOMAXPROCS=%d/%s/plan %d", p, gmp, o.name, k)
					cfg := faultCfg(plan)
					o.set(&cfg)
					var st [2]*Stats
					var sums [2][]float64
					var rf [2]*fault.RanksFailed
					for i, ref := range []collFunc{nil, messageLevel} {
						sums[i] = make([]float64, p)
						var err error
						st[i], err = runWorld(p, cfg, mixedProgram(sums[i]), ref)
						if err != nil && !errors.As(err, &rf[i]) {
							t.Fatalf("%s: reference=%v: %v", label, ref != nil, err)
						}
					}
					if !reflect.DeepEqual(rf[0], rf[1]) {
						t.Errorf("%s: failure reports differ:\nreplay:    %+v\nreference: %+v", label, rf[0], rf[1])
					}
					assertStatsIdentical(t, label, st[0], st[1], sums[0], sums[1])
					assertObserversIdentical(t, label, st[0], st[1])
					if rf[0] != nil && st[0].Timelines != nil {
						checkDeaths(t, label, plan, rf[0], st[0], covered)
					}
				}
			}
		}
	}
	for _, site := range append(crashSites, "two-hop detection") {
		if !covered[site] {
			t.Errorf("no plan covered a death at %q", site)
		}
	}
	t.Logf("%d plans", nPlans)
}

// checkDeaths requires each crashed rank's timeline to end with the event
// that reached its crash time, and records what the run covered.
func checkDeaths(t *testing.T, label string, plan *fault.Plan, rf *fault.RanksFailed, st *Stats, covered map[string]bool) {
	t.Helper()
	p := len(st.Timelines)
	crashed := map[int]bool{}
	for _, r := range rf.Crashed {
		crashed[r] = true
		evs := st.Timelines[r].Events
		at := plan.CrashTime(r)
		for i, e := range evs {
			if e.T1 >= at && i != len(evs)-1 {
				t.Errorf("%s: rank %d recorded %d event(s) after the one that reached its crash at %v",
					label, r, len(evs)-1-i, at)
				break
			}
		}
		if n := len(evs); n > 0 && evs[n-1].T1 == at {
			covered[crashSite(evs, n-1, r, p)] = true
		}
	}
	for _, d := range rf.Detections {
		if !crashed[d.Rank] {
			covered["two-hop detection"] = true
		}
	}
}
