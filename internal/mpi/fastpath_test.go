package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/telemetry"
)

// mixedProgram exercises every replayed collective interleaved with
// imbalanced compute and point-to-point traffic, on the world
// communicator and on RangeComm halves, with non-zero
// Bcast roots on both and a CheckpointSync (an Allreduce under an outer
// op label). Per-rank results are reduced into the returned checksum
// slice so value identity is checked alongside clock identity.
func mixedProgram(sums []float64) func(*Comm) error {
	return func(c *Comm) error {
		r := c.Rank()
		p := c.Size()
		check := 0.0
		for iter := 0; iter < 3; iter++ {
			c.ComputeSeconds(1e-4 * float64((r+iter)%p+1))
			got := c.Allreduce([]float64{float64(r + iter), 1}, Sum)
			check += got[0] + got[1]
			c.Send((r+1)%p, iter, []float64{float64(r)})
			d, _, _ := c.Recv((r+p-1)%p, iter)
			check += d[0]
			c.Barrier()
			b := c.Bcast(iter%p, []float64{float64(r) * 1.5, check})
			check += b[0]
			check += c.AllreduceScalar(float64(r)*0.25, Max)
			check += c.AllreduceScalar(float64(r)*0.25, Min)
		}
		check += c.CheckpointSync(1e-5 * float64(r+1))
		if p > 1 {
			// Two contiguous halves, the lower one the smaller for odd p.
			half := p / 2
			var sub *Comm
			if r < half {
				sub = c.RangeComm(0, 0, half)
			} else {
				sub = c.RangeComm(1, half, p-half)
			}
			c.ComputeSeconds(1e-5 * float64(r+1))
			got := sub.Allreduce([]float64{check}, Sum)
			check += got[0]
			sub.Barrier()
			check += sub.Bcast(sub.Size()-1, []float64{float64(sub.Rank())})[0]
		}
		sums[r] = check
		return nil
	}
}

// collFunc is the type of runWorld's reference hook: nil runs the
// replay, messageLevel the reference.
type collFunc = func(*Comm, collKind, int, Op, []float64) []float64

// runMixed runs mixedProgram the way Run does; runMixedOn can also run it
// on the message-level collectives the replay is held to.
func runMixed(t *testing.T, p int, cfg Config) (*Stats, []float64) {
	t.Helper()
	return runMixedOn(t, p, cfg, nil)
}

func runMixedOn(t *testing.T, p int, cfg Config, ref collFunc) (*Stats, []float64) {
	t.Helper()
	sums := make([]float64, p)
	st, err := runWorld(p, cfg, mixedProgram(sums), ref)
	if err != nil {
		t.Fatalf("run(%d ranks, reference=%v): %v", p, ref != nil, err)
	}
	return st, sums
}

// assertStatsIdentical requires bitwise equality of every per-rank
// virtual-time quantity — not approximate equality. The replay must be
// indistinguishable from the message-level implementation.
func assertStatsIdentical(t *testing.T, label string, a, b *Stats, sa, sb []float64) {
	t.Helper()
	if a.Elapsed != b.Elapsed {
		t.Errorf("%s: Elapsed %v vs %v", label, a.Elapsed, b.Elapsed)
	}
	for r := range a.Clocks {
		if a.Clocks[r] != b.Clocks[r] {
			t.Errorf("%s: rank %d clock %v vs %v", label, r, a.Clocks[r], b.Clocks[r])
		}
		if a.Compute[r] != b.Compute[r] {
			t.Errorf("%s: rank %d compute %v vs %v", label, r, a.Compute[r], b.Compute[r])
		}
		if a.Comm[r] != b.Comm[r] {
			t.Errorf("%s: rank %d comm %v vs %v", label, r, a.Comm[r], b.Comm[r])
		}
		if sa[r] != sb[r] {
			t.Errorf("%s: rank %d result checksum %v vs %v", label, r, sa[r], sb[r])
		}
	}
}

// assertObserversIdentical requires everything a run records beside its
// clocks to be equal too: profiles, timelines event by event (op label,
// peer and sender departure time included), the comm matrix, the
// critical path, the metric series and the flight tails.
func assertObserversIdentical(t *testing.T, label string, a, b *Stats) {
	t.Helper()
	if !reflect.DeepEqual(a.Profiles, b.Profiles) {
		t.Errorf("%s: profiles differ", label)
	}
	if (a.Timelines == nil) != (b.Timelines == nil) {
		t.Fatalf("%s: one run has timelines, the other none", label)
	}
	for r := range a.Timelines {
		ta, tb := a.Timelines[r], b.Timelines[r]
		if len(ta.Events) != len(tb.Events) || ta.Dropped != tb.Dropped {
			t.Errorf("%s: rank %d recorded %d events (%d dropped) vs %d (%d dropped)",
				label, r, len(ta.Events), ta.Dropped, len(tb.Events), tb.Dropped)
			continue
		}
		for i := range ta.Events {
			if ta.Events[i] != tb.Events[i] {
				t.Errorf("%s: rank %d event %d: %+v vs %+v", label, r, i, ta.Events[i], tb.Events[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(a.CommMatrix, b.CommMatrix) {
		t.Errorf("%s: comm matrices differ", label)
	}
	if a.Timelines != nil {
		for _, st := range []*Stats{a, b} {
			cp, err := st.CriticalPath()
			if err != nil {
				t.Fatalf("%s: critical path: %v", label, err)
			}
			if cp.Total() != st.Elapsed {
				t.Errorf("%s: critical path sums to %v, elapsed %v", label, cp.Total(), st.Elapsed)
			}
		}
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("%s: metric series differ", label)
	}
	if !reflect.DeepEqual(a.Flight, b.Flight) {
		t.Errorf("%s: flight tails differ:\n%+v\n%+v", label, a.Flight, b.Flight)
	}
}

// observers switches on, one at a time, everything a run can record.
var observers = []struct {
	name string
	set  func(*Config)
}{
	{"plain", func(*Config) {}},
	{"profile", func(c *Config) { c.Profile = true }},
	{"trace", func(c *Config) { c.Trace = true }},
	{"metrics", func(c *Config) { c.Metrics = &telemetry.Config{Interval: 1e-4} }},
	{"flight", func(c *Config) { c.flightEvents = 32 }},
}

// TestReplayMatchesMessageLevelReference is the runtime's differential
// test: whatever is observed — nothing, profiles, event timelines,
// metric series, the flight recorder — a run on the analytic replay and a
// run on real messages must agree on every clock, every result and every
// recorded artifact, at every host parallelism, including
// non-power-of-two sizes (the allreduce fold) and RangeComm halves.
func TestReplayMatchesMessageLevelReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sizes := []int{1, 2, 3, 8, 13, 64}
	if testing.Short() {
		sizes = []int{1, 3, 8, 13}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, obs := range observers {
			for _, p := range sizes {
				label := fmt.Sprintf("GOMAXPROCS=%d/%s/p=%d", procs, obs.name, p)
				cfg := testCfg()
				obs.set(&cfg)
				replay, replaySums := runMixed(t, p, cfg)
				ref, refSums := runMixedOn(t, p, cfg, messageLevel)
				assertStatsIdentical(t, label, replay, ref, replaySums, refSums)
				assertObserversIdentical(t, label, replay, ref)
			}
		}
	}
}

// TestReplayFlightTailsMatchReference: flight tails surface only when a
// run fails, so this one does — after every rank has told rank 0 it has
// nothing left to do, which keeps the tails independent of when the
// abort lands.
func TestReplayFlightTailsMatchReference(t *testing.T) {
	for _, p := range []int{2, 5, 8} {
		var tails [2][]telemetry.RankTail
		for i, ref := range []collFunc{nil, messageLevel} {
			cfg := testCfg()
			cfg.flightEvents = 64
			sums := make([]float64, p)
			prog := mixedProgram(sums)
			st, err := runWorld(p, cfg, func(c *Comm) error {
				if err := prog(c); err != nil {
					return err
				}
				if c.Rank() != 0 {
					c.Send(0, 9, nil)
					return nil
				}
				c.RecvAll(p-1, 9)
				return errors.New("dump the tails")
			}, ref)
			if err == nil || !strings.Contains(err.Error(), "dump the tails") {
				t.Fatalf("p=%d reference=%v: err = %v", p, ref != nil, err)
			}
			if len(st.Flight) != p {
				t.Fatalf("p=%d reference=%v: %d flight tails, want %d", p, ref != nil, len(st.Flight), p)
			}
			tails[i] = st.Flight
		}
		if !reflect.DeepEqual(tails[0], tails[1]) {
			t.Errorf("p=%d: flight tails differ:\nreplay:    %+v\nreference: %+v", p, tails[0], tails[1])
		}
	}
}

// TestReplayProfileIdentical: with profiling on, the per-region comm
// attribution must also be reproduced exactly.
func TestReplayProfileIdentical(t *testing.T) {
	prog := func(c *Comm) error {
		c.Profile().Push("solve")
		c.ComputeSeconds(1e-4 * float64(c.Rank()+1))
		c.Allreduce([]float64{1, 2}, Sum)
		c.Barrier()
		c.Profile().Pop()
		return nil
	}
	cfg := testCfg()
	cfg.Profile = true
	ref, err := runWorld(6, cfg, prog, messageLevel)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(6, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ref.Profiles {
		re, pe := ref.Profiles[r].Entry("solve"), replay.Profiles[r].Entry("solve")
		if re.Comm != pe.Comm || re.Compute != pe.Compute {
			t.Errorf("rank %d profile: messages %+v replay %+v", r, re, pe)
		}
	}
}

// stuckBarrier runs a barrier rank 0 never joins, and returns the stuck
// verdict's error, which reports the other two ranks parked at the
// barrier's station.
func stuckBarrier(t *testing.T, cfg Config) string {
	t.Helper()
	return stuckWithin(t, 3, cfg, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Barrier()
		}
		return nil
	})
}

// TestObserversDoNotSelectCollectivePath: observing a run never changes
// how it is computed. With any observer on, collectives are still
// replayed, and a traced replay still records the events and comm-matrix
// cells of the messages it stands for.
func TestObserversDoNotSelectCollectivePath(t *testing.T) {
	for _, obs := range observers {
		cfg := testCfg()
		obs.set(&cfg)
		if msg := stuckBarrier(t, cfg); !strings.Contains(msg, "2 of 3 in Barrier") {
			t.Errorf("%s: collectives were not replayed: %s", obs.name, msg)
		}
	}

	cfg := testCfg()
	cfg.Trace = true
	st, err := Run(4, cfg, func(c *Comm) error {
		c.Allreduce([]float64{1}, Sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range st.Timelines {
		if len(tl.Events) == 0 {
			t.Errorf("rank %d: traced allreduce recorded no events", tl.Rank)
		}
	}
	if msgs, _ := st.CommMatrix.Totals(); msgs != 8 {
		t.Errorf("traced 4-rank allreduce counted %d messages, want 8", msgs)
	}
}

// TestClocksIdenticalAcrossHostParallelism: virtual time must not depend
// on host scheduling. Run the same program single-threaded and with full
// host parallelism, on both collective paths, and require bitwise
// equality.
func TestClocksIdenticalAcrossHostParallelism(t *testing.T) {
	const p = 8
	for _, ref := range []collFunc{nil, messageLevel} {
		parallel, parSums := runMixedOn(t, p, testCfg(), ref)
		prev := runtime.GOMAXPROCS(1)
		serial, serSums := runMixedOn(t, p, testCfg(), ref)
		runtime.GOMAXPROCS(prev)
		assertStatsIdentical(t, "GOMAXPROCS=1 vs parallel", parallel, serial, parSums, serSums)
	}
}

// TestWatchdogAbortsRunNotProcess: the opt-in watchdog must surface as
// an error from Run — not panic in a timer goroutine and kill the
// process. Rank 0 is busy on the host rather than blocked, so the stuck
// verdict cannot fire first.
func TestWatchdogAbortsRunNotProcess(t *testing.T) {
	cfg := Config{Machine: cluster.SmallCluster(), Watchdog: 50 * time.Millisecond}
	_, err := Run(2, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			for !c.world.aborted() {
				time.Sleep(time.Millisecond)
			}
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("run past its watchdog returned no error")
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "1 of 2 in Barrier") {
		t.Fatalf("err = %v, want a watchdog error naming the parked rank", err)
	}
}

// TestWatchdogReportsBlockedReceives: a deadlocked program fails without
// any host-time bound, and the error names what the ranks wait for.
func TestWatchdogReportsBlockedReceives(t *testing.T) {
	msg := stuckWithin(t, 2, testCfg(), func(c *Comm) error {
		c.Recv(1-c.Rank(), 5) // both ranks wait; nobody sends
		return nil
	})
	want := "mpi: stuck: all 2 live rank(s) of 2 are blocked: 2 rank(s) blocked in receives (0←1/5, 1←0/5), 0 parked in collectives"
	if msg != want {
		t.Errorf("err = %s\nwant  %s", msg, want)
	}
}

// TestWatchdogAbortsCollectiveWait: ranks parked at a rendezvous station
// count as blocked too; the verdict wakes them, and the report counts
// them.
func TestWatchdogAbortsCollectiveWait(t *testing.T) {
	msg := stuckBarrier(t, testCfg())
	want := "mpi: stuck: all 2 live rank(s) of 3 are blocked: 0 rank(s) blocked in receives, 2 parked in collectives (2 of 3 in Barrier)"
	if msg != want {
		t.Errorf("err = %s\nwant  %s", msg, want)
	}
}

// TestMismatchedCollectivesFailLoudly: ranks entering different
// operations on one communicator meet at its station, where the mismatch
// is detectable; it must fail the run, not hang it.
func TestMismatchedCollectivesFailLoudly(t *testing.T) {
	cfg := testCfg()
	_, err := Run(2, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.Allreduce([]float64{1}, Sum)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mismatched collectives") {
		t.Fatalf("err = %v, want mismatched-collectives error", err)
	}
}

// TestSendVirtualChargesVirtualBytes guards the deduplicated send path:
// SendVirtual must still charge the virtual size, not the payload size.
func TestSendVirtualChargesVirtualBytes(t *testing.T) {
	elapsed := func(virtual int) float64 {
		st := run(t, 2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendVirtual(1, 0, []float64{1}, virtual)
			} else {
				d, _, _ := c.Recv(0, 0)
				if d[0] != 1 {
					t.Errorf("payload = %v, want [1]", d)
				}
			}
			return nil
		})
		return st.Elapsed
	}
	if !(elapsed(10_000_000) > elapsed(8)) {
		t.Error("larger virtual size did not cost more virtual time")
	}
}

// TestRecvAllDrainsManyToOne exercises the wildcard (AnySource) path of
// the indexed mailbox: every sender's payload must arrive exactly once
// and the clock must advance to the latest arrival.
func TestRecvAllDrainsManyToOne(t *testing.T) {
	const p = 16
	run(t, p, func(c *Comm) error {
		if c.Rank() == 0 {
			data, sources := c.RecvAll(p-1, 7)
			for i := range data {
				if sources[i] != i+1 {
					t.Errorf("sources[%d] = %d, want %d", i, sources[i], i+1)
				}
				if len(data[i]) != 1 || data[i][0] != float64(i+1) {
					t.Errorf("data[%d] = %v", i, data[i])
				}
			}
		} else {
			c.ComputeSeconds(1e-5 * float64(c.Rank()))
			c.Send(0, 7, []float64{float64(c.Rank())})
		}
		return nil
	})
}

// traceSummaryJSON renders a run's summary as JSON so trace-level
// determinism can be asserted byte-for-byte.
func traceSummaryJSON(t *testing.T, st *Stats) string {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Summary().WriteJSON(&buf); err != nil {
		t.Fatalf("summary JSON: %v", err)
	}
	return buf.String()
}

// TestTraceIdenticalAcrossHostParallelism extends the host-parallelism
// invariant from clocks to the trace path: with event tracing on, the
// per-rank timelines, the comm matrix and the JSON run summary must all
// come out identical under GOMAXPROCS=1 and full host parallelism — the
// trace is part of the reproducibility contract, not a best-effort log.
func TestTraceIdenticalAcrossHostParallelism(t *testing.T) {
	const p = 8
	cfg := testCfg()
	cfg.Trace = true
	parallel, parSums := runMixed(t, p, cfg)
	prev := runtime.GOMAXPROCS(1)
	serial, serSums := runMixed(t, p, cfg)
	runtime.GOMAXPROCS(prev)

	assertStatsIdentical(t, "trace: GOMAXPROCS=1 vs parallel", parallel, serial, parSums, serSums)
	for r := range parallel.Timelines {
		if !reflect.DeepEqual(parallel.Timelines[r], serial.Timelines[r]) {
			t.Errorf("rank %d timeline differs between host parallelism levels", r)
		}
	}
	if !reflect.DeepEqual(parallel.CommMatrix, serial.CommMatrix) {
		t.Error("comm matrix differs between host parallelism levels")
	}
	if a, b := traceSummaryJSON(t, parallel), traceSummaryJSON(t, serial); a != b {
		t.Errorf("run summaries differ:\nparallel: %s\nserial:   %s", a, b)
	}
}
