package mpi

import (
	"slices"

	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

// flightDepth is the flight ring's depth when a fault plan arms it.
const flightDepth = 64

// recorder is everything that observes one rank: its per-region profile
// (Config.Profile), event timeline and comm-matrix row (Config.Trace),
// metric collector (Config.Metrics) and flight ring — the keep-last
// timeline of sends, receives and collective entries that a failed run
// dumps, armed by a fault plan. The runtime calls it once per clock
// advance (record), per completed message (received) and per outermost
// collective (collective); each view takes what it needs. Views only
// observe, so a run is bitwise identical whichever are on. A proc's
// recorder is nil when nothing observes; like the proc, it belongs to
// the rank goroutine, or to the replay leader while the rank is parked.
type recorder struct {
	clock    *float64 // the rank clock, stamping received and collective marks
	profile  *trace.Profile
	timeline *trace.Timeline
	comms    map[int]commCell // comm-matrix row, keyed by destination world rank
	metrics  *telemetry.Collector
	flight   *trace.Timeline
	op       string // outermost collective label of the events; "" outside one
	popOp    func() // clears op; built once so pushOp never allocates
}

// commCell accumulates one row entry of the rank×rank comm matrix.
type commCell struct{ msgs, bytes int64 }

// newRecorder returns the recorder cfg asks for on a rank, or nil when
// nothing observes. faults reports that a fault plan is set.
func newRecorder(rank int, cfg *Config, faults bool, clock *float64) *recorder {
	depth := cfg.flightEvents
	if depth <= 0 && faults {
		depth = flightDepth
	}
	if !cfg.Profile && !cfg.Trace && cfg.Metrics == nil && depth <= 0 {
		return nil
	}
	r := &recorder{clock: clock}
	r.popOp = func() { r.op = "" }
	if cfg.Profile || cfg.Trace {
		r.profile = trace.NewProfile()
	}
	if cfg.Trace {
		r.timeline = trace.NewTimeline(rank, cfg.traceMaxEvents)
		r.comms = make(map[int]commCell)
	}
	if cfg.Metrics != nil {
		r.metrics = telemetry.NewCollector(rank, cfg.Metrics)
	}
	if depth > 0 {
		r.flight = trace.NewKeepLast(rank, depth)
	}
	return r
}

// chargeOf is the metric collector's split of each clock-advance kind.
var chargeOf = [...]telemetry.ChargeKind{trace.EvCompute: telemetry.ChargeCompute, trace.EvSend: telemetry.ChargeComm,
	trace.EvRecv: telemetry.ChargeComm, trace.EvWait: telemetry.ChargeWait, trace.EvComm: telemetry.ChargeComm}

// record observes one clock advance: ev spans it, s is the duration the
// rank was charged (the profile sums the same operands), and died reports
// that the charge ended at the crash time. Only a message that leaves is
// counted, so a send whose overhead kills the rank enters no comm-matrix
// cell, sent counter or flight ring.
//
//perf:hotpath
func (r *recorder) record(ev trace.Event, s float64, died bool) {
	if r.profile != nil {
		if ev.Kind == trace.EvCompute {
			r.profile.AddCompute(s)
		} else {
			r.profile.AddComm(s)
		}
	}
	if r.timeline != nil {
		ev.Region, ev.Op = r.profile.Current(), r.op
		r.timeline.Add(ev)
	}
	if r.metrics != nil {
		r.metrics.Advance(ev.T0, ev.T1, chargeOf[ev.Kind])
	}
	if ev.Kind != trace.EvSend || died {
		return
	}
	if r.comms != nil {
		c := r.comms[ev.Peer]
		r.comms[ev.Peer] = commCell{c.msgs + 1, c.bytes + int64(ev.Bytes)}
	}
	if r.metrics != nil {
		r.metrics.Sent(ev.Bytes)
	}
	if r.flight != nil {
		r.flight.Add(ev)
	}
}

// received observes one completed receive of a message from world rank
// peer that arrived at virtual time arrival.
//
//perf:hotpath
func (r *recorder) received(peer, bytes, tag int, arrival float64) {
	if r.metrics != nil {
		r.metrics.Received(uint64(bytes), arrival)
	}
	if r.flight != nil {
		r.flight.Add(trace.Event{Kind: trace.EvRecv, T0: *r.clock, T1: *r.clock, Peer: peer, Bytes: bytes, Tag: tag})
	}
}

// collective labels the rank's events with op until the returned
// function runs, and counts the operation.
//
//perf:hotpath
func (r *recorder) collective(op string) func() {
	r.op = op
	if r.metrics != nil {
		r.metrics.Collective()
	}
	if r.flight != nil {
		r.flight.Add(trace.Event{Kind: trace.EvCollective, T0: *r.clock, T1: *r.clock, Peer: -1, Op: op})
	}
	return r.popOp
}

// finishRecorders hands the ranks' views to st once every rank has
// returned; a failed run also gets the flight tails Stats.Flight names.
func (w *World) finishRecorders(st *Stats, cfg *Config, failed bool) {
	if cfg.Trace {
		st.Timelines = make([]*trace.Timeline, w.size)
		st.CommMatrix = &trace.CommMatrix{Ranks: w.size}
	}
	var collectors []*telemetry.Collector
	anyDead := slices.Max(w.deadAt) >= 0
	for i, p := range w.procs {
		r := p.rec
		if r == nil {
			continue
		}
		st.Profiles[i] = r.profile
		if r.timeline != nil {
			st.Timelines[i] = r.timeline
			for dst, c := range r.comms {
				st.CommMatrix.AddEdge(i, dst, c.msgs, c.bytes)
			}
		}
		if r.metrics != nil {
			r.metrics.Finish(p.clock)
			collectors = append(collectors, r.metrics) // every rank has one
		}
		if failed && r.flight != nil && (!anyDead || w.deadAt[i] >= 0) {
			st.Flight = append(st.Flight, r.tail(max(w.deadAt[i], 0)))
		}
	}
	st.CommMatrix.Sort()
	st.Metrics = telemetry.Finalize(collectors)
}

// tail exports the flight ring as a RankTail; failedAt is 0 if the rank
// did not die.
func (r *recorder) tail(failedAt float64) telemetry.RankTail {
	evs := r.flight.Ordered()
	t := telemetry.RankTail{Rank: r.flight.Rank, FailedAt: failedAt,
		Total: uint64(len(evs) + r.flight.Dropped), Events: make([]telemetry.FlightEvent, len(evs))}
	for i, ev := range evs {
		t.Events[i] = telemetry.FlightEvent{T: ev.T1, Kind: ev.Kind.String(), Peer: ev.Peer, Bytes: ev.Bytes, Tag: ev.Tag}
		if ev.Kind == trace.EvCollective {
			t.Events[i] = telemetry.FlightEvent{T: ev.T1, Kind: ev.Kind.String(), Op: ev.Op}
		}
	}
	return t
}
