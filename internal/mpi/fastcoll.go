package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cpx/internal/fault"
)

// Replayed collectives: the one implementation of Barrier, Bcast and
// Allreduce. Their point-to-point algorithms would exchange O(p log p)
// real messages, and at fig8/fig9 scale the host cost of that traffic —
// mailbox operations, goroutine wakeups, payload clones — dominates the
// simulator's wall-clock. The replay removes the messages: the ranks of a
// communicator rendezvous at a per-context station, the rank that
// completes it replays the exact virtual-time recurrence the message
// schedule induces against every member's clock, and all ranks leave
// with their results.
//
// The replay is bitwise-faithful, not approximate: for each rank it
// makes the same postSend/completeRecv calls in the same order as the
// message schedule, so per-rank clocks, compute/comm accounting,
// profiles, timelines, comm-matrix cells, metric series, flight records
// and reduction results are bit-for-bit those of real messages. Under a
// fault plan it also does what the messages would: a station completes
// once every member has arrived or died, a replayed charge that reaches
// a member's crash time kills it there, a receive whose sender is dead
// fails after the detection latency exactly as Recv's does, and each
// member unwinds on its own goroutine with the fate the replay handed
// it. The differential tests in fastpath_test.go and fault_test.go hold
// it to the message-level reference in reference_test.go.

type collKind uint8

const (
	collBarrier collKind = iota
	collBcast
	collAllreduce
)

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "Barrier"
	case collBcast:
		return "Bcast"
	case collAllreduce:
		return "Allreduce"
	}
	return "?"
}

// inFlight is a replayed message on its way to a rank: what a mailbox
// entry would carry. sent tells a message from an empty slot; only the
// fault-aware steps read it, because only a dead member sends nothing.
type inFlight struct {
	departure, arrival float64
	sent               bool
}

// station is the rendezvous point for one communicator's collectives.
// Ranks park here until every member has arrived (or, under a fault
// plan, died); the rank that completes the station leads the replay
// while every other member is blocked in Wait, which is what makes
// mutating their procs safe.
type station struct {
	mu    sync.Mutex
	cond  *sync.Cond
	world *World
	ctx   int
	base  int // world rank of member 0
	size  int

	arrived int
	parked  int // members waiting on cond, counted blocked (World.park)
	gen     uint64
	kind    collKind
	root    int
	op      Op
	procs   []*proc
	data    [][]float64 // per-rank inputs
	out     [][]float64 // per-rank results
	here    []bool      // members that entered this collective
	// fate is the unwind a replay handed a member — errKilled or the
	// *fault.RankFailure it detected — kept until that member's goroutine
	// collects it: a later replay on this station counts the member dead
	// and may finish before it wakes.
	fate []error

	// Replay scratch, reused across collectives on this communicator.
	// Every schedule has at most one message in flight to a rank at a
	// time, so one slot per rank stands in for its mailbox.
	inbox []inFlight
	snap  [][]float64 // pre-round payload snapshots (allreduce)
}

// stationOf returns the rendezvous station of c's context, creating it
// on first use. The pointer is cached on the Comm so repeated
// collectives skip the stations-map lookup and its lock; Comms are
// per-rank, so the cache is written only by its owning rank.
func (c *Comm) stationOf() *station {
	if c.station != nil {
		return c.station
	}
	w := c.world
	w.stMu.Lock()
	defer w.stMu.Unlock()
	st := w.stations[c.ctx]
	if st == nil {
		n := c.Size()
		st = &station{
			world: w,
			ctx:   c.ctx,
			base:  c.base,
			size:  n,
			procs: make([]*proc, n),
			data:  make([][]float64, n),
			out:   make([][]float64, n),
			here:  make([]bool, n),
			fate:  make([]error, n),
			inbox: make([]inFlight, n),
		}
		st.cond = sync.NewCond(&st.mu)
		w.stations[c.ctx] = st
	}
	c.station = st
	return st
}

// stationList returns the stations created so far, ordered by context
// so host-side walks (abort fan-out, wait-set report) are repeatable.
func (w *World) stationList() []*station {
	w.stMu.Lock()
	list := make([]*station, 0, len(w.stations))
	for _, st := range w.stations {
		//lint:allow determinism collected then sorted by context below
		list = append(list, st)
	}
	w.stMu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ctx < list[j].ctx })
	return list
}

// wakeStations wakes every parked rank to re-check for an abort or, after
// a death, whether its station is now complete.
func (w *World) wakeStations() {
	for _, st := range w.stationList() {
		st.mu.Lock()
		st.wake()
		st.mu.Unlock()
	}
}

// wake makes every parked member runnable (World.park). Caller holds st.mu.
func (st *station) wake() {
	st.world.ranks.Add(int64(st.parked))
	st.parked = 0
	st.cond.Broadcast()
}

// waitSet describes what the ranks of a stuck run are blocked on, for
// the run's error: receivers with the (source, tag) they wait for, and
// ranks parked in a collective that never completed.
func (w *World) waitSet() string {
	const show = 4
	var recvs []string
	blocked := 0
	for r, b := range w.boxes {
		b.mu.Lock()
		if b.waiting {
			if blocked++; blocked <= show {
				src, tag := "any", fmt.Sprint(b.wantTag)
				if b.wantSrc != AnySource {
					src = fmt.Sprint(b.wantSrc)
				}
				if b.wantTag == tagCollective {
					tag = "collective"
				}
				recvs = append(recvs, fmt.Sprintf("%d←%s/%s", r, src, tag))
			}
		}
		b.mu.Unlock()
	}
	var colls []string
	parked := 0
	for _, st := range w.stationList() {
		st.mu.Lock()
		if st.arrived > 0 {
			parked += st.arrived
			colls = append(colls, fmt.Sprintf("%d of %d in %v", st.arrived, st.size, st.kind))
		}
		st.mu.Unlock()
	}
	s := fmt.Sprintf("%d rank(s) blocked in receives", blocked)
	if blocked > 0 {
		if blocked > show {
			recvs = append(recvs, "…")
		}
		s += " (" + strings.Join(recvs, ", ") + ")"
	}
	s += fmt.Sprintf(", %d parked in collectives", parked)
	if parked > 0 {
		s += " (" + strings.Join(colls, ", ") + ")"
	}
	return s
}

// rendezvous parks the calling rank until all members of c have entered
// the same collective or died, replays the schedule once complete, and
// returns this rank's result — or unwinds with the fate the replay gave it.
func (c *Comm) rendezvous(kind collKind, root int, op Op, data []float64) []float64 {
	if ref := c.world.reference; ref != nil {
		return ref(c, kind, root, op, data)
	}
	st := c.stationOf()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.arrived == 0 {
		st.kind, st.root, st.op = kind, root, op
	} else if st.kind != kind || st.root != root || st.op != op {
		panic(fmt.Sprintf("mpi: mismatched collectives on one communicator: rank %d entered %v, others %v",
			c.rank, kind, st.kind))
	}
	// procs never change between generations on one station; writing
	// them only once keeps repeat collectives free of pointer write
	// barriers on the hot path.
	if st.procs[c.rank] == nil {
		st.procs[c.rank] = c.proc
	}
	st.data[c.rank] = data
	st.here[c.rank] = true
	st.arrived++
	for gen := st.gen; st.gen == gen; {
		if st.complete() {
			st.replay()
			break
		}
		if c.world.aborted() {
			panic(errAborted)
		}
		st.parked++
		c.world.park(&st.mu)
		st.cond.Wait()
	}
	res, fate := st.out[c.rank], st.fate[c.rank]
	st.out[c.rank], st.data[c.rank], st.fate[c.rank] = nil, nil, nil
	if fate != nil {
		panic(fate)
	}
	return res
}

// complete reports whether every member has arrived or died.
func (st *station) complete() bool {
	w := st.world
	if st.arrived == st.size || w.plan == nil {
		return st.arrived == st.size
	}
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	for r, in := range st.here {
		if !in && w.deadAt[st.base+r] < 0 {
			return false
		}
	}
	return true
}

// replay runs the collective's schedule and opens the next generation.
func (st *station) replay() {
	switch st.kind {
	case collBarrier:
		st.replayBarrier()
	case collBcast:
		st.replayBcast()
	case collAllreduce:
		st.replayAllreduce()
	}
	clear(st.here)
	clear(st.inbox)
	st.arrived = 0
	st.gen++
	st.wake()
}

// live reports whether member r entered this collective and is still
// alive in its replay.
func (st *station) live(r int) bool { return st.here[r] && st.fate[r] == nil }

// send replays rank from's send of `bytes` to rank to, reporting whether
// the message left: under a fault plan a dead member sends nothing, and
// one whose send charge reaches its crash time dies there.
func (st *station) send(from, to, bytes int) (sent bool) {
	if st.world.plan != nil {
		if !st.live(from) {
			return false
		}
		defer st.unwind(from)
	}
	dep, arr := st.procs[from].postSend(st.base+to, bytes, tagCollective)
	st.inbox[to] = inFlight{dep, arr, true}
	return true
}

// recv replays rank r's receive of the message in flight to it, reporting
// whether r received it. Under a fault plan an empty slot means the sender
// is dead, and r fails after the detection latency (failPeer).
func (st *station) recv(r, from, bytes int) (received bool) {
	m, p := st.inbox[r], st.procs[r]
	if st.world.plan != nil {
		if !st.live(r) {
			return false
		}
		defer st.unwind(r)
		st.inbox[r].sent = false
		if !m.sent {
			p.failPeer(st.world.failureFor(st.base + from))
		}
	}
	p.completeRecv(st.base+from, bytes, tagCollective, m.departure, m.arrival)
	return true
}

// unwind turns member r's unwind inside a replayed step into its fate:
// errKilled (die has recorded the death), or the RankFailure it detected,
// after which r is dead to the members it would have sent to next. The
// stations are woken by r's own goroutine, never by the leader holding
// this one's lock.
func (st *station) unwind(r int) {
	switch rec := recover().(type) {
	case nil:
	case *fault.RankFailure:
		st.fate[r] = rec
		p := st.procs[r]
		st.world.recordDeath(p.worldRank, p.clock)
	default:
		if rec != errKilled {
			panic(rec)
		}
		st.fate[r] = errKilled
	}
}

// replayBarrier mirrors the dissemination barrier: ceil(log2 p) rounds,
// round k sending to rank+k and receiving from rank-k. Within a round
// every rank charges its send first (stamping the partner's arrival),
// then completes its receive — exactly each rank's program order.
func (st *station) replayBarrier() {
	p := st.size
	for k := 1; k < p; k *= 2 {
		for r := 0; r < p; r++ {
			st.send(r, (r+k)%p, 0)
		}
		for r := 0; r < p; r++ {
			st.recv(r, (r-k+p)%p, 0)
		}
	}
}

// replayBcast mirrors the rotated binomial tree. Ranks are processed in
// virtual-rank order, so a parent's send departures are stamped before
// its children complete their receives.
func (st *station) replayBcast() {
	p := st.size
	root := st.root
	data := st.data[root]
	if p == 1 {
		st.out[root] = data
		return
	}
	bytes := 8 * len(data)
	for v := 0; v < p; v++ {
		r := (v + root) % p
		mask := 1
		for mask < p {
			if v&mask != 0 {
				st.recv(r, (v-mask+root)%p, bytes)
				break
			}
			mask <<= 1
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if v+mask < p {
				st.send(r, (v+mask+root)%p, bytes)
			}
		}
		if !st.live(r) {
			continue
		}
		// The message-level path hands every non-root rank a private
		// clone made by its parent's send; the root returns its own
		// slice unchanged.
		if v == 0 {
			st.out[r] = data
		} else {
			st.out[r] = st.procs[r].arena.clone(data)
		}
	}
}

// replayAllreduce mirrors recursive doubling with the non-power-of-two
// fold: ranks past the largest power of two fold their data onto a low
// partner, the low ranks run log2 rounds of pairwise exchanges, and the
// fold partners get the result back. Payloads are snapshotted before
// each round's applies, as the message-level clones are.
func (st *station) replayAllreduce() {
	p := st.size
	op := st.op
	bytes := 0
	// acc per rank: the message-level path starts from a fresh copy of
	// the rank's input and returns it to the caller.
	for r := 0; r < p; r++ {
		if !st.live(r) {
			continue
		}
		acc := make([]float64, len(st.data[r]))
		copy(acc, st.data[r])
		st.out[r] = acc
		bytes = 8 * len(acc)
	}
	if p == 1 {
		return
	}
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	extra := p - pow2

	// Fold: high ranks send their input to their low partners, which
	// receive and apply.
	for r := pow2; r < p; r++ {
		st.send(r, r-pow2, bytes)
	}
	for r := 0; r < extra; r++ {
		if st.recv(r, r+pow2, bytes) {
			op.apply(st.out[r], st.out[r+pow2])
		}
	}

	// Recursive doubling among the low pow2 ranks.
	if cap(st.snap) < pow2 {
		st.snap = make([][]float64, pow2)
	}
	snap := st.snap[:pow2]
	for k := 1; k < pow2; k *= 2 {
		for r := 0; r < pow2; r++ {
			if !st.send(r, r^k, bytes) {
				continue
			}
			if len(snap[r]) < len(st.out[r]) {
				snap[r] = make([]float64, len(st.out[r]))
			}
			copy(snap[r][:len(st.out[r])], st.out[r])
		}
		for r := 0; r < pow2; r++ {
			if st.recv(r, r^k, bytes) {
				op.apply(st.out[r], snap[r^k][:len(st.out[r])])
			}
		}
	}

	// Unfold: results travel back to the high ranks.
	for r := 0; r < extra; r++ {
		st.send(r, r+pow2, bytes)
	}
	for r := pow2; r < p; r++ {
		// The message-level path returns the received clone of the low
		// partner's final acc.
		if st.recv(r, r-pow2, bytes) {
			copy(st.out[r], st.out[r-pow2])
		}
	}
}
