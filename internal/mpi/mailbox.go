package mpi

import (
	"sync"

	"cpx/internal/fault"
)

// The mailbox is the per-rank incoming message queue. Matching is FIFO
// per (communicator, source, tag) — MPI's non-overtaking rule — so the
// queue is indexed by exactly that key: each (ctx, src, tag) triple owns
// a small FIFO bucket, held in a slot of a short unordered slice, and an
// exact-match receive is a scan of the live slots plus a head pop. A rank
// has few live buckets at a time (a coupler fan-in is at most 16
// sources; no benchmarked mailbox held more than 25), so the scan costs
// less than hashing the key; a drained bucket's slot is swap-removed.
// Only a wide fan-in, past wideSlots live buckets, indexes the slots by
// key, so that a root taking from thousands of sources by rank stays
// linear in them. AnySource receives
// pick the pending message with the smallest arrival sequence number
// among the heads of the buckets with their (ctx, tag), which reproduces
// the scan-in-arrival-order semantics of the first implementation
// exactly, whatever order the slots are in.
//
// Each mailbox has a single consumer (only the owning rank receives from
// it), so the wait protocol is a targeted wakeup: the receiver publishes
// the (ctx, src, tag) pattern it is blocked on and senders signal only
// when they deliver a message that matches it. Dense many-to-one traffic
// no longer wakes the receiver once per non-matching delivery.

// bkey indexes one FIFO bucket.
type bkey struct{ ctx, src, tag int }

// bucket is one (ctx, src, tag) FIFO. Buckets are recycled through the
// mailbox freelist when they drain, so steady-state traffic allocates no
// bucket memory.
type bucket struct {
	msgs []*message
	head int
	next *bucket // freelist link
}

func (bk *bucket) empty() bool { return bk.head == len(bk.msgs) }

// push appends to the FIFO tail. Growth is amortised: buckets are
// recycled through the mailbox free list with capacity intact.
//
//perf:hotpath
func (bk *bucket) push(m *message) {
	bk.msgs = append(bk.msgs, m) //lint:allow hotalloc amortised growth on a free-listed bucket
}

// pop removes and returns the FIFO head. The vacated slot is nilled so
// the slice tail never retains a consumed message (or its payload)
// against the GC.
//
//perf:hotpath
func (bk *bucket) pop() *message {
	m := bk.msgs[bk.head]
	bk.msgs[bk.head] = nil
	bk.head++
	if bk.head == len(bk.msgs) {
		bk.msgs = bk.msgs[:0]
		bk.head = 0
	}
	return m
}

// slot is one live bucket with its key.
type slot struct {
	key bkey
	bk  *bucket
}

// wideSlots is the live-bucket count past which a mailbox indexes its
// slots by key, so that a wide fan-in taken by source stays linear rather
// than quadratic in its senders (TestMailboxWideFanIn: 4,096 senders). It
// is where the two searches cost the same: a round of n senders each
// leaving one message, taken by source, cost about as much per message
// scanned as indexed between n = 80 and 128 on a 2-core x86-64 host
// (scan ~100 ns at 64 against the index's ~150, ~250 at 160 against
// ~200). No bench workload reaches it: the most live buckets any mailbox
// held were 25 (engine), 20 (pe-sweep) and 16 (serve-mix, traced-run), so
// every benchmarked receive scans. The mailbox stops using the index when
// its slots drain to a quarter of wideSlots.
const wideSlots = 96

// mailbox is the per-rank incoming message queue. The zero value is
// ready to use: the slot slice and the wait condvar are created on first
// need, so a run whose ranks never exchange point-to-point messages
// (collectives only) pays nothing per mailbox beyond the struct
// itself.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	slots []slot // the non-empty buckets, in no particular order
	// index maps each live key to its slot while wide is set (wideSlots).
	// A narrowed mailbox clears it but keeps its storage for the next
	// wide phase.
	index   map[bkey]int
	wide    bool
	pending int    // total queued messages
	seq     uint64 // next arrival sequence number
	free    *bucket

	// Receiver wait state: valid while waiting is true. There is at most
	// one waiter (the owning rank), so a matching put issues one Signal.
	waiting                   bool
	wantCtx, wantSrc, wantTag int
}

// find returns the index of the slot holding key k, or -1.
//
//perf:hotpath
func (b *mailbox) find(k bkey) int {
	if b.wide {
		if i, ok := b.index[k]; ok {
			return i
		}
		return -1
	}
	for i := range b.slots {
		if b.slots[i].key == k {
			return i
		}
	}
	return -1
}

// popSlot pops the head of slot i's bucket; a bucket it drains goes back
// to the free list and its slot is swap-removed. Caller holds b.mu.
//
//perf:hotpath
func (b *mailbox) popSlot(i int) *message {
	bk := b.slots[i].bk
	m := bk.pop()
	if bk.empty() {
		b.putBucket(bk)
		last := len(b.slots) - 1
		if b.wide {
			delete(b.index, b.slots[i].key)
			if i != last {
				b.index[b.slots[last].key] = i
			}
			if last <= wideSlots/4 {
				clear(b.index)
				b.wide = false
			}
		}
		b.slots[i] = b.slots[last]
		b.slots[last] = slot{}
		b.slots = b.slots[:last]
	}
	b.pending--
	return m
}

// addSlot gives key k a slot with an empty bucket and returns its index,
// indexing the slots once there are more than wideSlots. Caller holds
// b.mu.
//
//perf:hotpath
func (b *mailbox) addSlot(k bkey) int {
	i := len(b.slots)
	b.slots = append(b.slots, slot{k, b.getBucket()}) //lint:allow hotalloc amortised growth: drained slots are swap-removed, so the slice keeps its capacity
	switch {
	case b.wide:
		b.index[k] = i
	case len(b.slots) > wideSlots:
		if b.index == nil {
			b.index = make(map[bkey]int) //lint:allow hotalloc one index per mailbox, made by its first wide fan-in and kept
		}
		for j, sl := range b.slots {
			b.index[sl.key] = j
		}
		b.wide = true
	}
	return i
}

func (b *mailbox) getBucket() *bucket {
	if bk := b.free; bk != nil {
		b.free = bk.next
		bk.next = nil
		return bk
	}
	return &bucket{}
}

func (b *mailbox) putBucket(bk *bucket) {
	// Don't let one burst pin a huge backing array forever.
	if cap(bk.msgs) > 256 {
		bk.msgs = nil
	}
	bk.next = b.free
	b.free = bk
}

func match(src, tag int, m *message) bool {
	return (src == AnySource || m.src == src) && m.tag == tag
}

// put delivers a message, waking the receiver only if it is blocked on a
// matching pattern.
func (b *mailbox) put(w *World, m *message) {
	b.mu.Lock()
	b.enqueue(m)
	if b.waiting && m.ctx == b.wantCtx && match(b.wantSrc, b.wantTag, m) {
		b.wake(w)
	}
	b.mu.Unlock()
}

// wake makes the parked receiver runnable, un-counting it (World.park).
// Caller holds b.mu and has seen b.waiting.
func (b *mailbox) wake(w *World) {
	b.waiting = false
	w.ranks.Add(1)
	b.cond.Signal()
}

// enqueue stamps the arrival sequence and appends to the (ctx, src, tag)
// FIFO bucket. Caller holds b.mu.
//
//perf:hotpath
func (b *mailbox) enqueue(m *message) {
	m.seq = b.seq
	b.seq++
	k := bkey{m.ctx, m.src, m.tag}
	i := b.find(k)
	if i < 0 {
		i = b.addSlot(k)
	}
	b.slots[i].bk.push(m)
	b.pending++
}

// tryTake removes and returns the first message matching (ctx, src, tag),
// or nil. Caller holds b.mu.
func (b *mailbox) tryTake(ctx, src, tag int) *message {
	if b.pending == 0 {
		return nil
	}
	if src != AnySource {
		i := b.find(bkey{ctx, src, tag})
		if i < 0 {
			return nil
		}
		return b.popSlot(i)
	}
	// AnySource: earliest arrival among matching bucket heads. Slot order
	// depends on past removals, but the min-seq winner does not.
	best := -1
	var bestSeq uint64
	for i := range b.slots {
		sl := &b.slots[i]
		if sl.key.ctx != ctx || sl.key.tag != tag {
			continue
		}
		if seq := sl.bk.msgs[sl.bk.head].seq; best < 0 || seq < bestSeq {
			best, bestSeq = i, seq
		}
	}
	if best < 0 {
		return nil
	}
	return b.popSlot(best)
}

// take removes and returns the first message matching (ctx, src, tag),
// blocking until one is available or the world aborts. A non-nil
// deadCheck is probed whenever no message is pending: if it reports the
// source dead, take returns the failure instead of blocking forever.
// Pending messages win over a death (a rank that sent before dying
// still delivers), which keeps the outcome independent of host
// scheduling: whether a message exists at a virtual time is decided by
// the plan, not by goroutine interleaving.
func (b *mailbox) take(w *World, ctx, src, tag int, deadCheck func() *fault.RankFailure) (*message, *fault.RankFailure) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if m := b.tryTake(ctx, src, tag); m != nil {
			return m, nil
		}
		if w.aborted() {
			panic(errAborted)
		}
		if deadCheck != nil {
			if rf := deadCheck(); rf != nil {
				return nil, rf
			}
		}
		if b.cond == nil {
			b.cond = sync.NewCond(&b.mu)
		}
		b.wantCtx, b.wantSrc, b.wantTag = ctx, src, tag
		b.waiting = true
		w.park(&b.mu)
		b.cond.Wait() // whoever wakes us has cleared b.waiting
	}
}

// interrupt wakes a blocked receiver to observe an abort or a death.
func (b *mailbox) interrupt(w *World) {
	b.mu.Lock()
	if b.waiting {
		b.wake(w)
	}
	b.mu.Unlock()
}
