package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

// Reserved tag used internally by collective operations. User code must
// use tags in [0, TagUser).
const (
	tagCollective = 1 << 28
	// TagUser is the exclusive upper bound for user-supplied tags.
	TagUser = tagCollective
)

// AnySource matches a message from any source rank in Recv.
const AnySource = -1

// message is an in-flight point-to-point message. Every payload is a
// []float64 — the sender's private copy, nil for a control message.
// Structs are pooled (pool.go): the receive that consumes a message
// returns it for reuse.
type message struct {
	ctx       int       // communicator context id
	src       int       // source rank within the communicator
	srcWorld  int       // source world rank (for tracing/causality)
	tag       int       // message tag
	data      []float64 // payload (a private copy)
	bytes     int       // payload size used for network cost
	departure float64   // virtual time the message left the sender
	arrival   float64   // virtual time the message reaches the receiver
	seq       uint64    // mailbox arrival order, stamped by put
}

var errAborted = errors.New("mpi: world aborted due to failure on another rank")

// errKilled is the unwind sentinel of a rank reaching its fault-plan
// crash time. Unlike errAborted it does not abort the world: survivors
// keep running and observe the death through failure detection.
var errKilled = errors.New("mpi: rank killed by fault plan")

// World holds the shared state of one simulated job.
type World struct {
	size    int
	machine *cluster.Machine
	boxes   []*mailbox
	procs   []*proc
	wcomms  []Comm // per-rank world communicators, batch-allocated
	plan    *fault.Plan
	// reference, when set, stands in for the replay of Barrier, Bcast and
	// Allreduce: the message-level bodies the in-package differential
	// tests hold the replay to. Nil in every run Run starts.
	reference func(c *Comm, kind collKind, root int, op Op, data []float64) []float64

	// deadMu guards deadAt: per-rank virtual death times (< 0 = alive).
	// A rank is recorded dead only once its goroutine can no longer send,
	// so "dead with no pending message" is a stable, deterministic fact.
	deadMu sync.Mutex
	deadAt []float64

	stMu     sync.Mutex
	stations map[int]*station // collective rendezvous, by ctx

	sharedMu sync.Mutex
	shared   map[any]*sharedEntry // read-only set-up state the ranks build once (shared.go)

	abort atomic.Bool
	ranks atomic.Int64 // live ranks × liveOne + those of them not parked (World.park)

	failMu   sync.Mutex
	finished bool  // set once all ranks returned; silences Cancel and the watchdog
	failErr  error // stuck verdict, Cancel, watchdog or other runtime-level failure
}

func (w *World) aborted() bool { return w.abort.Load() }

// setAborted publishes the abort flag and wakes every blocked rank so it
// can unwind: the fan-out broadcasts on the mailbox and station condvars.
// Blocked ranks re-check the flag before blocking again, so one fan-out
// is enough.
func (w *World) setAborted() {
	if w.abort.Swap(true) {
		return
	}
	for _, b := range w.boxes {
		b.interrupt(w)
	}
	w.wakeStations()
}

// recordDeath marks a rank dead at a virtual time and wakes every
// blocked receiver so it can run failure detection. Called only after
// the dying rank has delivered its last message (it panics at a charge
// point, before any subsequent put), so receivers always drain pending
// traffic before observing the death.
func (w *World) recordDeath(rank int, at float64) {
	w.deadMu.Lock()
	if w.deadAt[rank] < 0 {
		w.deadAt[rank] = at
	}
	w.deadMu.Unlock()
	for _, b := range w.boxes {
		b.interrupt(w)
	}
}

// failureFor returns the failure record of a dead rank, or nil.
func (w *World) failureFor(rank int) *fault.RankFailure {
	if w.plan == nil {
		return nil
	}
	w.deadMu.Lock()
	at := w.deadAt[rank]
	w.deadMu.Unlock()
	if at < 0 {
		return nil
	}
	return &fault.RankFailure{Rank: rank, FailedAt: at}
}

// fail records a runtime-level failure (e.g. the stuck verdict) and
// aborts the world, unless the run has already completed.
func (w *World) fail(err error) {
	w.failMu.Lock()
	if w.finished || w.failErr != nil {
		w.failMu.Unlock()
		return
	}
	w.failErr = err
	w.failMu.Unlock()
	w.setAborted()
}

// The stuck verdict. A rank parks only in mailbox.take and at a station,
// and only whoever wakes it un-counts it, under the lock it signals
// under. Sends deposit synchronously, so once every live rank is parked
// none can ever wake, at any host scheduling. Shared's waiters stay
// running (their builder is); after a failure the counts no longer matter.
const liveOne = 1 << 32

// park counts the calling rank parked before it waits under mu; if that
// left no live rank running, it fails the world and unwinds instead.
func (w *World) park(mu *sync.Mutex) {
	if v := w.ranks.Add(-1); v%liveOne == 0 {
		mu.Unlock() // the wait set reads every mailbox and station
		w.stuck(v)
		mu.Lock()
		panic(errAborted)
	}
}

// exit retires a rank that has unwound and fanned out its death, if any.
func (w *World) exit() { w.stuck(w.ranks.Add(-liveOne - 1)) }

// stuck fails the world if v, the count a park or exit left, has live
// ranks and none of them running.
func (w *World) stuck(v int64) {
	if v > 0 && v%liveOne == 0 && !w.aborted() {
		w.fail(fmt.Errorf("mpi: stuck: all %d live rank(s) of %d are blocked: %s", v/liveOne, w.size, w.waitSet()))
	}
}

// proc is the per-rank virtual-time state, shared by every communicator
// the rank belongs to.
type proc struct {
	worldRank int
	clock     float64
	compute   float64
	comm      float64
	arena     f64Arena // spare payload buffers feeding this rank's sends (pool.go)
	recvAll   recvAllScratch
	rec       *recorder // every observer of this rank; nil when nothing observes (recorder.go)

	// Fault-plan state (Config.Faults). crashAt is this rank's scheduled
	// death time (+Inf = never); the clock can never pass it — any charge
	// that would cross it is truncated and the rank dies. node feeds the
	// plan's straggler/link lookups; world backs the death record.
	world   *World
	crashAt float64
	node    int
}

// clamp truncates a clock target at the rank's crash time, reporting
// whether the rank dies at the end of this charge.
func (p *proc) clamp(t1 float64) (float64, bool) {
	if t1 < p.crashAt {
		return t1, false
	}
	return p.crashAt, true
}

// die records the rank's death at its current clock and unwinds. The
// death is published before the panic so no later send can exist.
func (p *proc) die() {
	p.world.recordDeath(p.worldRank, p.clock)
	panic(errKilled)
}

// advance moves the rank clock to t1, truncated at the crash time, and
// charges s seconds (t1 minus the clock, in the caller's arithmetic) as
// compute or communication by ev's kind. It hands ev, spanning the move,
// to the recorder once, then unwinds if the rank died.
//
//perf:hotpath
func (p *proc) advance(t1, s float64, ev trace.Event) {
	ev.T0 = p.clock
	t1, died := p.clamp(t1)
	if died {
		s = t1 - ev.T0 // truncated at the crash
	}
	p.clock, ev.T1 = t1, t1
	if ev.Kind == trace.EvCompute {
		p.compute += s
	} else {
		p.comm += s
	}
	if p.rec != nil {
		p.rec.record(ev, s, died)
	}
	if died {
		p.die()
	}
}

// chargeCompute advances the rank's clock by s seconds of compute.
// Runs once per Compute call — the densest charge path in a simulation.
//
//perf:hotpath
func (p *proc) chargeCompute(s float64) {
	if p.world != nil && p.world.plan != nil {
		s = p.world.plan.ComputeSeconds(p.node, p.clock, s)
	}
	p.advance(p.clock+s, s, trace.Event{Kind: trace.EvCompute, Peer: -1})
}

// chargeCommAs charges s seconds of communication as an event of the
// given kind.
//
//perf:hotpath
func (p *proc) chargeCommAs(s float64, kind trace.EventKind, peer, bytes, tag int) {
	p.advance(p.clock+s, s, trace.Event{Kind: kind, Peer: peer, Bytes: bytes, Tag: tag})
}

// waitUntil advances the clock to the arrival time of a message from
// srcWorld, accounting the jump as wait time whose event carries the
// causality edge (sender world rank + virtual departure time).
func (p *proc) waitUntil(srcWorld, bytes, tag int, departure, arrival float64) {
	if arrival > p.clock {
		p.advance(arrival, arrival-p.clock, trace.Event{Kind: trace.EvWait,
			Peer: srcWorld, Bytes: bytes, Tag: tag, SendT: departure})
	}
}

// postSend is the sender's half of one message: the CPU overhead charge,
// whose EvSend event the recorder counts as the message. It returns the
// virtual times the message departs and arrives. Real sends (send) and
// the replayed collectives (fastcoll.go) both go through it and
// completeRecv, so every observer sees the same message whether or not
// one travelled.
func (p *proc) postSend(dstWorld, bytes, tag int) (departure, arrival float64) {
	w := p.world
	p.chargeCommAs(w.machine.SendOverhead, trace.EvSend, dstWorld, bytes, tag)
	departure = p.clock
	if w.plan != nil {
		arrival = departure + w.plan.TransferTime(w.machine, p.worldRank, dstWorld, bytes, departure)
	} else {
		arrival = departure + w.machine.TransferTime(p.worldRank, dstWorld, bytes)
	}
	return departure, arrival
}

// completeRecv is the receiver's half: the jump to the arrival time is
// time this rank spent waiting, then the receive overhead is charged.
func (p *proc) completeRecv(srcWorld, bytes, tag int, departure, arrival float64) {
	p.waitUntil(srcWorld, bytes, tag, departure, arrival)
	p.chargeCommAs(p.world.machine.RecvOverhead, trace.EvRecv, srcWorld, bytes, tag)
	if p.rec != nil {
		p.rec.received(srcWorld, bytes, tag, arrival)
	}
}

// sharedNoop is returned by pushOp when nothing records or an outer
// collective already holds the label, so call sites can always defer it.
var sharedNoop = func() {}

// pushOp labels subsequent events with a collective-operation name until
// the returned function is called. The outermost label wins (the
// allreduce inside CheckpointSync stays labelled "checkpoint"), and only
// the outermost operation reaches the recorder.
func (p *proc) pushOp(name string) func() {
	if p.rec == nil || p.rec.op != "" {
		return sharedNoop
	}
	return p.rec.collective(name)
}

// Comm is a communicator: the contiguous world ranks [base, base+size)
// with a private message-matching context. The world communicator covers
// all ranks (context 0); RangeComm derives the others. The range needs
// O(1) memory per rank, which matters at the paper's 40,000-rank scale.
type Comm struct {
	world *World
	proc  *proc
	ctx   int
	rank  int // rank within this communicator; world rank = base + rank
	base  int
	size  int
	// station caches this communicator's collective rendezvous
	// station (lazily resolved), so repeated collectives skip the
	// stations-map lock. Per-rank like the Comm itself.
	station *station
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.proc.worldRank }

// worldRankOf maps a communicator rank to its world rank.
func (c *Comm) worldRankOf(r int) int { return c.base + r }

// RangeComm returns a communicator over the contiguous world ranks
// [base, base+size) without any communication, like
// MPI_Comm_create_group over a range. Every member must call it on the
// world communicator with the same groupID (>= 0) and range; groupIDs
// must be unique per distinct group within a run. The caller must be a
// member.
func (c *Comm) RangeComm(groupID, base, size int) *Comm {
	if c.ctx != 0 {
		panic("mpi: RangeComm must be called on the world communicator")
	}
	w := c.proc.worldRank
	if w < base || w >= base+size {
		panic(fmt.Sprintf("mpi: RangeComm caller %d outside [%d,%d)", w, base, base+size))
	}
	if groupID < 0 {
		panic("mpi: RangeComm groupID must be non-negative")
	}
	return &Comm{
		world: c.world,
		proc:  c.proc,
		ctx:   -(1 + groupID), // negative, so never the world's 0
		rank:  w - base,
		base:  base,
		size:  size,
	}
}

// Machine returns the cluster model the world runs on.
func (c *Comm) Machine() *cluster.Machine { return c.world.machine }

// Clock returns the caller's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.proc.clock }

// Profile returns the rank's trace profile (nil if profiling is off).
func (c *Comm) Profile() *trace.Profile {
	if c.proc.rec == nil {
		return nil
	}
	return c.proc.rec.profile
}

// Compute charges the virtual cost of the described work to the rank clock.
func (c *Comm) Compute(w cluster.Work) { c.proc.chargeCompute(c.world.machine.ComputeTime(w)) }

// ComputeSeconds charges s virtual seconds of computation directly.
func (c *Comm) ComputeSeconds(s float64) {
	if s < 0 {
		panic("mpi: negative compute time")
	}
	c.proc.chargeCompute(s)
}

// ComputeTime returns the rank's accumulated virtual compute seconds.
func (c *Comm) ComputeTime() float64 { return c.proc.compute }

// CommTime returns the rank's accumulated virtual communication seconds.
func (c *Comm) CommTime() float64 { return c.proc.comm }

// StretchSince multiplies the virtual time accrued since the given marks
// by `factor`, preserving the compute/communication split. Used by
// representative sub-stepping: a few executed micro-steps stand in for a
// much longer block whose cost is charged at the measured per-step rate
// (DESIGN.md §5.2).
func (c *Comm) StretchSince(computeMark, commMark, factor float64) {
	if factor < 1 {
		panic("mpi: StretchSince factor must be >= 1")
	}
	dComp := (c.proc.compute - computeMark) * (factor - 1)
	dComm := (c.proc.comm - commMark) * (factor - 1)
	if dComp < 0 || dComm < 0 {
		panic("mpi: StretchSince marks are in the future")
	}
	c.proc.chargeCompute(dComp)
	c.proc.chargeCommAs(dComm, trace.EvComm, -1, 0, 0)
}

// ChargeCommSeconds charges s virtual seconds of communication time
// directly. Used where a dense communication schedule's per-message CPU
// overheads are charged analytically while only the non-empty payloads
// travel as real messages (e.g. the spray alltoallv; DESIGN.md §5.2).
func (c *Comm) ChargeCommSeconds(s float64) {
	if s < 0 {
		panic("mpi: negative comm time")
	}
	c.proc.chargeCommAs(s, trace.EvComm, -1, 0, 0)
}

// ResetClock sets the rank clock to exactly t — the restart primitive
// of checkpoint/restart: a recovered world rebuilds its solvers and
// resumes exactly at the checkpoint's synchronized virtual time, so a
// recovered run's stepping clocks are bitwise identical to a fault-free
// run's. A forward jump is charged as communication (checkpoint I/O and
// coordination wait), which also keeps traced timelines tiling; a small
// backward set (a rank ahead of a checkpoint-sync target) adjusts the
// clock silently. A reset that would cross the rank's scheduled crash
// time kills the rank.
func (c *Comm) ResetClock(t float64) {
	p := c.proc
	if t > p.clock {
		p.chargeCommAs(t-p.clock, trace.EvComm, -1, 0, 0)
		return
	}
	p.clock = t
	if _, died := p.clamp(t); died {
		p.die()
	}
}

// CheckpointSync is the clock coordination of one checkpoint: an
// allreduce of every rank's (entry clock, local I/O cost) maxima, after
// which each rank's clock is set to exactly maxClock + maxCost — the
// virtual time the coordinated checkpoint completes, identical across
// ranks bit for bit. Collective over the communicator; a rank commits
// its checkpoint (fault.Store.Commit) only once this returns.
func (c *Comm) CheckpointSync(cost float64) float64 {
	defer c.proc.pushOp("checkpoint")()
	r := c.Allreduce([]float64{c.proc.clock, cost}, Max)
	t := r[0] + r[1]
	c.ResetClock(t)
	return t
}

func (c *Comm) checkPeer(r int, op string) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", op, r, c.Size()))
	}
}

// send is the one eager buffered send behind Send and SendVirtual: the
// payload is cloned into a buffer from the rank's free list, stamped with
// its virtual departure and arrival times and delivered. chargedBytes is
// the wire size used for both the CPU overhead accounting and the
// network delay; Send charges the payload's size, SendVirtual the
// modelled full-scale size.
func (c *Comm) send(to, tag int, data []float64, chargedBytes int, op string) {
	c.checkPeer(to, op)
	dstWorld := c.worldRankOf(to)
	m := getMessage()
	m.data = c.proc.arena.clone(data)
	m.departure, m.arrival = c.proc.postSend(dstWorld, chargedBytes, tag)
	m.ctx, m.src, m.srcWorld, m.tag = c.ctx, c.rank, c.proc.worldRank, tag
	m.bytes = chargedBytes
	c.world.boxes[dstWorld].put(c.world, m)
}

// failPeer surfaces a peer's death ULFM-style: the survivor's clock
// advances to the modelled detection time (death + detection latency,
// accounted as wait) and the receive unwinds with the RankFailure. The
// error propagates through every collective, so whole communicators
// learn of the failure instead of deadlocking.
func (p *proc) failPeer(rf *fault.RankFailure) {
	detect := rf.FailedAt + p.world.plan.Detection()
	if detect > p.clock {
		p.chargeCommAs(detect-p.clock, trace.EvWait, -1, 0, 0)
	}
	rf.DetectedAt = p.clock
	panic(rf)
}

// deadCheckFor builds the failure probe a blocked receive runs against a
// specific source (or AnySource), or nil when failure detection cannot
// apply.
func (c *Comm) deadCheckFor(from int) func() *fault.RankFailure {
	if c.world.plan == nil {
		return nil
	}
	if from == AnySource {
		if c.Size() < 2 {
			return nil
		}
		return c.anySourceFailure
	}
	src := c.worldRankOf(from)
	return func() *fault.RankFailure { return c.world.failureFor(src) }
}

// anySourceFailure is the dead-check of a wildcard receive: it reports a
// failure only once *every* other member of the communicator is dead, the
// deterministic point at which no matching message can ever be sent
// again. (Failing on the first dead peer would race against live
// senders' deliveries in host time.) The failure reported is the death
// that completed the condition — the largest FailedAt, ties broken by the
// lowest world rank — so the survivor's detection time is the virtual
// moment its last potential sender died, independent of host scheduling.
// Pending messages still win: take drains the queue before probing.
func (c *Comm) anySourceFailure() *fault.RankFailure {
	w := c.world
	p := c.Size()
	last, lastAt := -1, -1.0
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	for r := 0; r < p; r++ {
		if r == c.rank {
			continue
		}
		at := w.deadAt[c.worldRankOf(r)]
		if at < 0 {
			return nil
		}
		if at > lastAt {
			last, lastAt = c.worldRankOf(r), at
		}
	}
	return &fault.RankFailure{Rank: last, FailedAt: lastAt}
}

// Send transmits a []float64 to rank `to` with the given tag. A nil data
// sends a control message of zero bytes.
func (c *Comm) Send(to, tag int, data []float64) {
	c.send(to, tag, data, 8*len(data), "Send")
}

// Recv receives a []float64 from rank `from` (or AnySource) with the
// given tag. It blocks until a matching message exists, advances the
// virtual clock to its arrival and returns the payload, its source rank
// and tag. The receiver owns the payload until it releases it (Release).
// Under a fault plan, a receive from a dead rank with no pending message
// unwinds with a *fault.RankFailure after the plan's detection latency;
// pending messages are always drained first (a rank that sent before
// dying still delivers).
func (c *Comm) Recv(from, tag int) ([]float64, int, int) {
	if from != AnySource {
		c.checkPeer(from, "Recv")
	}
	m, rf := c.world.boxes[c.proc.worldRank].take(c.world, c.ctx, from, tag, c.deadCheckFor(from))
	if rf != nil {
		c.proc.failPeer(rf)
	}
	c.proc.completeRecv(m.srcWorld, m.bytes, m.tag, m.departure, m.arrival)
	d, src, mtag := m.data, m.src, m.tag
	releaseMessage(m)
	return d, src, mtag
}

// arrived is one message of a RecvAll batch.
type arrived struct {
	src      int
	srcWorld int
	bytes    int
	arrival  float64
	payload  []float64
}

// recvAllScratch holds the working and result slices of RecvAll between
// calls, so a batched receive allocates only while a batch outgrows them.
type recvAllScratch struct {
	msgs    []arrived
	data    [][]float64
	sources []int
}

// RecvAll receives n messages of the given tag from any sources, as if
// posted as n receives completed by one MPI_Waitall: the virtual clock
// advances to the latest arrival plus the per-message overheads, so the
// result is independent of host-side delivery order. Returns payloads
// sorted by source rank (ties by arrival), with sources aligned. The
// receiver owns each payload until it releases it (Release); the two
// outer slices are the rank's own and are overwritten by its next RecvAll.
func (c *Comm) RecvAll(n, tag int) (data [][]float64, sources []int) {
	sc := &c.proc.recvAll
	msgs := sc.msgs[:0]
	var latest message // the message whose arrival completes the Waitall
	deadCheck := c.deadCheckFor(AnySource)
	for i := 0; i < n; i++ {
		m, rf := c.world.boxes[c.proc.worldRank].take(c.world, c.ctx, AnySource, tag, deadCheck)
		if rf != nil {
			// A wildcard wait can only fail once every potential sender is
			// dead; unwind like any receive from a dead peer.
			c.proc.failPeer(rf)
		}
		msgs = append(msgs, arrived{m.src, m.srcWorld, m.bytes, m.arrival, m.data})
		if i == 0 || m.arrival > latest.arrival {
			latest = *m
		}
		releaseMessage(m)
	}
	if n > 0 {
		c.proc.waitUntil(latest.srcWorld, latest.bytes, latest.tag, latest.departure, latest.arrival)
	}
	c.proc.chargeCommAs(float64(n)*c.world.machine.RecvOverhead, trace.EvRecv, -1, 0, tag)
	slices.SortFunc(msgs, func(a, b arrived) int {
		if a.src != b.src {
			return cmp.Compare(a.src, b.src)
		}
		return cmp.Compare(a.arrival, b.arrival)
	})
	if rec := c.proc.rec; rec != nil {
		// All n receives complete at the Waitall's final clock; recording
		// them after the sort keeps the flight order deterministic.
		for _, m := range msgs {
			rec.received(m.srcWorld, m.bytes, tag, m.arrival)
		}
	}
	data, sources = sc.data[:0], sc.sources[:0]
	for _, m := range msgs {
		data = append(data, m.payload)
		sources = append(sources, m.src)
	}
	sc.msgs, sc.data, sc.sources = msgs[:0], data, sources
	return data, sources
}

// Release hands a payload this rank received (or any slice it owns and
// is done with) back to the runtime, which reuses its memory for the
// rank's next sends, or, once the rank's own list is full, for any
// rank's (pool.go). Releasing is optional and only costs an allocation
// when skipped; the caller must never touch buf, or any slice of it,
// after releasing it. Race-detector builds fill a released buffer with
// NaN and panic on a second Release of it.
func (c *Comm) Release(buf []float64) { c.proc.arena.release(buf) }

// SendVirtual transmits data but charges the network cost of
// virtualBytes instead of the payload's real size. Mini-apps running
// scaled-down working sets use it so message costs reflect the true
// problem size (DESIGN.md §5.2). Like Send, it copies data before
// it returns, so the sender keeps data and may overwrite or reuse it at
// once — halo pack buffers are kept and refilled on that guarantee — and
// the receiver owns the copy it is handed. A nil data sends no payload
// at the same virtual cost.
func (c *Comm) SendVirtual(to, tag int, data []float64, virtualBytes int) {
	c.send(to, tag, data, virtualBytes, "SendVirtual")
}

// Stats summarises a completed run.
type Stats struct {
	Ranks    int
	Elapsed  float64 // simulated run-time: the maximum rank clock
	Clocks   []float64
	Compute  []float64 // per-rank virtual compute seconds
	Comm     []float64 // per-rank virtual communication+wait seconds
	Profiles []*trace.Profile
	// Timelines holds the per-rank event timelines and CommMatrix the
	// rank×rank message/byte counts; both are nil unless Config.Trace.
	Timelines  []*trace.Timeline
	CommMatrix *trace.CommMatrix
	// Metrics holds the per-rank virtual-time metric series; nil unless
	// Config.Metrics was set.
	Metrics *telemetry.RunSeries
	// Flight holds the flight-ring tails of a failed run: every dead
	// rank's (fault-plan crashes and detection cascades), or every
	// recording rank's when the run failed with no deaths (stuck verdict,
	// watchdog, cancellation, abort). Nil for successful runs and when no
	// ring was armed.
	Flight []telemetry.RankTail
}

// MaxClockRank returns the rank whose clock set Elapsed.
func (s *Stats) MaxClockRank() int {
	best := 0
	for i, c := range s.Clocks {
		if c > s.Clocks[best] {
			best = i
		}
	}
	return best
}

// CriticalPath analyses the message-causality chain that sets Elapsed.
// It requires Config.Trace to have been set on the run.
func (s *Stats) CriticalPath() (*trace.CriticalPath, error) {
	if s.Timelines == nil {
		return nil, errors.New("mpi: CriticalPath requires Config.Trace")
	}
	return trace.ComputeCriticalPath(s.Timelines)
}

// Summary builds the machine-readable run summary, including the
// per-region profile, critical path and comm-matrix sections when the
// run recorded them.
func (s *Stats) Summary() *trace.RunSummary {
	sum := &trace.RunSummary{
		Ranks:        s.Ranks,
		Elapsed:      s.Elapsed,
		MaxClockRank: s.MaxClockRank(),
		AvgCompute:   s.AvgCompute(),
		AvgComm:      s.AvgComm(),
		CommFraction: s.CommFraction(),
	}
	if prof := s.MergedProfile(); prof != nil {
		for _, name := range prof.Regions() {
			e := prof.Entry(name)
			sum.Regions = append(sum.Regions, trace.RegionSummary{
				Region: name, Compute: e.Compute, Comm: e.Comm, Calls: e.Calls,
			})
		}
	}
	if cp, err := s.CriticalPath(); err == nil {
		sum.CriticalPath = cp.Summarize()
	}
	if s.CommMatrix != nil {
		msgs, bytes := s.CommMatrix.Totals()
		sum.Comm = &trace.CommSummary{Messages: msgs, Bytes: bytes, Pairs: len(s.CommMatrix.Edges)}
	}
	sum.Flight = s.Flight
	return sum
}

// AvgCompute returns the mean per-rank compute time.
func (s *Stats) AvgCompute() float64 {
	if s.Ranks == 0 {
		return 0
	}
	return sumOf(s.Compute) / float64(s.Ranks)
}

// AvgComm returns the mean per-rank communication time.
func (s *Stats) AvgComm() float64 {
	if s.Ranks == 0 {
		return 0
	}
	return sumOf(s.Comm) / float64(s.Ranks)
}

// CommFraction is the mean fraction of run-time spent communicating.
func (s *Stats) CommFraction() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return s.AvgComm() / s.Elapsed
}

// MergedProfile aggregates all rank profiles (nil if profiling was off).
func (s *Stats) MergedProfile() *trace.Profile {
	if len(s.Profiles) == 0 || s.Profiles[0] == nil {
		return nil
	}
	return trace.MergeAll(s.Profiles)
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Config controls a Run.
type Config struct {
	// Machine is the cluster model; defaults to cluster.ARCHER2().
	Machine *cluster.Machine
	// Profile enables per-rank trace profiles.
	Profile bool
	// Trace enables per-rank event timelines (virtual-time spans for
	// compute, send, recv/wait and collective phases) and the rank×rank
	// communication matrix, feeding the critical-path analysis and the
	// Perfetto/JSON exporters. Implies Profile. Tracing only observes:
	// the replayed collectives record the same send/wait/recv events and
	// matrix cells their messages would, so a traced run is computed
	// exactly as an untraced one. Off by default, recording nothing.
	Trace bool
	// Watchdog, when positive, aborts the run once it has taken this much
	// *host* time; the error summarises what the ranks were blocked on.
	// Anything else means no bound. A deadlock needs none: the run fails
	// the moment every live rank is blocked (World.park).
	Watchdog time.Duration
	// Faults injects the deterministic failure schedule of a fault.Plan:
	// rank crashes, straggler nodes and degraded links (DESIGN.md §7).
	// When ranks crash, Run returns partial Stats plus a
	// *fault.RanksFailed error instead of aborting; survivors observe
	// dead peers as *fault.RankFailure errors after the plan's detection
	// latency. The plan must not be mutated during the run.
	Faults *fault.Plan
	// Cancel, when non-nil, aborts the run as soon as the channel is
	// closed: the abort fan-out wakes every blocked rank, all rank
	// goroutines unwind, and Run returns ErrCanceled (with partial
	// Stats, like any other aborted run). This is how the serving
	// layer plumbs an HTTP request context (and so its deadline, the only
	// host-time bound of a served run) into a simulation — pass
	// ctx.Done(). A channel already closed when Run starts always
	// cancels; otherwise cancellation is a host-side race against
	// completion by design, and a run that finishes first returns normally.
	Cancel <-chan struct{}
	// Metrics enables the opt-in virtual-time metrics sampler: per-rank
	// counters and gauges sampled at fixed virtual-time intervals into
	// Stats.Metrics, with optional live snapshots via Config.Observer.
	// Sampling only observes the charges the runtime already makes, so
	// clocks, stats and traces are bitwise identical with metrics on or
	// off (metrics_test.go enforces this differentially). Message
	// counters include the messages of replayed collectives.
	Metrics *telemetry.Config

	// traceMaxEvents caps the events recorded per rank (0 selects
	// trace.DefaultMaxEvents); flightEvents > 0 arms the flight ring with
	// that depth even without a fault plan. Both are set only by this
	// package's tests: ranks past the trace cap report dropped events and
	// are rejected by the critical-path analysis, and the ring is
	// otherwise armed, at flightDepth, exactly when a fault plan is set.
	traceMaxEvents int
	flightEvents   int
}

// ErrCanceled reports that a run was aborted through Config.Cancel
// before completing. Callers match it with errors.Is.
var ErrCanceled = errors.New("mpi: run canceled")

// Run executes fn on `size` simulated ranks and returns timing statistics.
// Any rank returning an error or panicking aborts the whole world; the
// first failure is reported. Ranks killed by a fault plan (Config.Faults)
// do not abort: the run completes, survivors observing the death unwind
// with *fault.RankFailure, and Run returns a *fault.RanksFailed error.
// On any error the returned Stats still describe the partial run (clocks
// and timelines up to each rank's last charge), so aborted runs export
// cleanly; callers must treat them as incomplete.
func Run(size int, cfg Config, fn func(*Comm) error) (*Stats, error) {
	return runWorld(size, cfg, fn, nil)
}

// runWorld is Run plus the hook in-package differential tests use:
// reference computes Barrier, Bcast and Allreduce in place of the replay
// (World.reference).
func runWorld(size int, cfg Config, fn func(*Comm) error, reference func(*Comm, collKind, int, Op, []float64) []float64) (*Stats, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: size must be positive, got %d", size)
	}
	m := cfg.Machine
	if m == nil {
		m = cluster.ARCHER2()
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	plan := cfg.Faults
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		if plan.Empty() {
			plan = nil
		}
	}
	w := &World{
		size:      size,
		machine:   m,
		boxes:     make([]*mailbox, size),
		procs:     make([]*proc, size),
		stations:  make(map[int]*station),
		shared:    make(map[any]*sharedEntry),
		plan:      plan,
		reference: reference,
		deadAt:    make([]float64, size),
	}
	// Mailboxes and procs are carved from two batch allocations: at
	// fig8/fig9 rank counts, one-object-per-rank setup costs show up in
	// run-level benchmarks.
	bxs := make([]mailbox, size)
	ps := make([]proc, size)
	w.wcomms = make([]Comm, size)
	spares := newSpareStore(size)
	for i := range w.boxes {
		w.boxes[i] = &bxs[i]
		ps[i] = proc{worldRank: i, world: w, crashAt: math.Inf(1), node: m.Node(i)}
		ps[i].arena.store = spares
		w.procs[i] = &ps[i]
		w.deadAt[i] = -1
		if plan != nil {
			ps[i].crashAt = plan.CrashTime(i)
		}
		ps[i].rec = newRecorder(i, &cfg, plan != nil, &ps[i].clock)
	}

	w.ranks.Store(int64(size)*liveOne + int64(size))
	if cfg.Watchdog > 0 {
		// On expiry the watchdog aborts the world through the normal
		// error path: blocked ranks wake, unwind via errAborted, and Run
		// returns the watchdog error. It must never panic — a panic in a
		// timer goroutine would kill the whole process.
		//lint:allow determinism the opt-in watchdog runs on host time by design; it never feeds the virtual clock
		t := time.AfterFunc(cfg.Watchdog, func() {
			w.fail(fmt.Errorf("mpi: watchdog: run of %d ranks exceeded %v host time: %s",
				size, cfg.Watchdog, w.waitSet()))
		})
		defer t.Stop()
	}

	if cfg.Cancel != nil {
		select {
		case <-cfg.Cancel:
			// Already closed: fail before any rank starts, so the run
			// returns ErrCanceled even when its ranks would finish before
			// a watcher goroutine got scheduled.
			w.fail(ErrCanceled)
		default:
			// The watcher reuses the runtime's abort path: fail() marks
			// the world aborted and interrupts every mailbox and station,
			// so blocked ranks panic with errAborted and unwind. fail() is
			// a no-op once the run has finished, so a cancellation that
			// loses the race against completion changes nothing. The stop
			// channel (closed via defer, after wg.Wait) reaps the watcher.
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-cfg.Cancel:
					w.fail(ErrCanceled)
				case <-stop:
				}
			}()
		}
	}

	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w.rankBody(rank, fn, errs)
		}(r)
	}
	wg.Wait()
	w.failMu.Lock()
	w.finished = true
	runtimeErr := w.failErr
	w.failMu.Unlock()

	var firstErr error
	for _, e := range errs {
		if e != nil && !errors.Is(e, errAborted) && !errors.Is(e, errKilled) {
			var rf *fault.RankFailure
			if errors.As(e, &rf) {
				continue
			}
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		firstErr = runtimeErr
	}
	if firstErr == nil && plan != nil {
		// Assemble the fault outcome: the ranks the plan killed plus the
		// survivors' detections, all in rank order.
		var crashed []int
		var detections []fault.RankFailure
		earliest := math.Inf(1)
		for r, e := range errs {
			if errors.Is(e, errKilled) {
				crashed = append(crashed, r)
				if at := w.deadAt[r]; at >= 0 && at < earliest {
					earliest = at
				}
			} else if e != nil {
				var rf *fault.RankFailure
				if errors.As(e, &rf) {
					detections = append(detections, *rf)
				}
			}
		}
		if len(crashed) > 0 || len(detections) > 0 {
			firstErr = &fault.RanksFailed{Crashed: crashed, FailedAt: earliest, Detections: detections}
		}
	}
	if firstErr == nil && w.aborted() {
		firstErr = errAborted
	}

	st := &Stats{
		Ranks:    size,
		Clocks:   make([]float64, size),
		Compute:  make([]float64, size),
		Comm:     make([]float64, size),
		Profiles: make([]*trace.Profile, size),
	}
	for i, p := range w.procs {
		st.Clocks[i] = p.clock
		st.Compute[i] = p.compute
		st.Comm[i] = p.comm
		if p.clock > st.Elapsed {
			st.Elapsed = p.clock
		}
	}
	w.finishRecorders(st, &cfg, firstErr != nil)
	return st, firstErr
}

// rankBody runs fn on one rank with the standard unwind handling; it is
// the body of one rank goroutine.
func (w *World) rankBody(rank int, fn func(*Comm) error, errs []error) {
	defer w.exit() // last: after the unwind's abort or death fan-out
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if err, ok := rec.(error); ok {
			switch {
			case err == errAborted:
				errs[rank] = errAborted
				w.setAborted()
				return
			case err == errKilled:
				// Death already recorded by die(); the world keeps
				// running so survivors can detect and unwind.
				errs[rank] = errKilled
				w.died(rank)
				return
			}
			var rf *fault.RankFailure
			if errors.As(err, &rf) {
				// This rank observed a dead peer and unwound. It will
				// never send again, so it is dead to *its* peers too:
				// record the cascade so they unblock deterministically.
				errs[rank] = err
				w.died(rank)
				return
			}
		}
		errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
		w.setAborted()
	}()
	comm := &w.wcomms[rank]
	*comm = Comm{world: w, proc: w.procs[rank], ctx: 0, rank: rank, size: w.size}
	if err := fn(comm); err != nil {
		var rf *fault.RankFailure
		if errors.As(err, &rf) {
			// fn propagated a failure detection as a return value.
			errs[rank] = err
			w.died(rank)
			return
		}
		errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
		w.setAborted()
	}
}

// died publishes the death of a rank whose goroutine has unwound (a
// no-op record if die or a replay already made it) and wakes the
// stations, whose collectives complete once every member arrived or died.
func (w *World) died(rank int) {
	w.recordDeath(rank, w.procs[rank].clock)
	w.wakeStations()
}
