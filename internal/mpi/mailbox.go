package mpi

import (
	"sync"

	"cpx/internal/fault"
)

// The mailbox is the per-rank incoming message queue. Matching is FIFO
// per (communicator, source, tag) — MPI's non-overtaking rule — so the
// queue is indexed by exactly that key: each (ctx, src, tag) triple owns
// a small FIFO bucket, and an exact-match receive is a map hit plus a
// head pop instead of the linear scan over every pending message the
// first implementation used. AnySource receives pick the pending message
// with the smallest arrival sequence number among the heads of the
// buckets with their (ctx, tag), which reproduces the old
// scan-in-arrival-order semantics exactly.
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

// mailbox is the per-rank incoming message queue. The zero value is
// ready to use: the bucket map and the wait condvar are created on first
// need, so a run whose ranks never exchange point-to-point messages
// (collectives only) pays nothing per mailbox beyond the struct
// itself.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buckets map[bkey]*bucket
	pending int    // total queued messages
	seq     uint64 // next arrival sequence number
	free    *bucket

	// Receiver wait state: valid while waiting is true. There is at most
	// one waiter (the owning rank), so a matching put issues one Signal.
	waiting                   bool
	wantCtx, wantSrc, wantTag int
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
func (b *mailbox) put(m *message) {
	b.mu.Lock()
	b.enqueue(m)
	if b.waiting && m.ctx == b.wantCtx && match(b.wantSrc, b.wantTag, m) {
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// enqueue stamps the arrival sequence and appends to the (ctx, src, tag)
// FIFO bucket. Caller holds b.mu.
//
//perf:hotpath
func (b *mailbox) enqueue(m *message) {
	m.seq = b.seq
	b.seq++
	k := bkey{m.ctx, m.src, m.tag}
	if b.buckets == nil {
		b.buckets = make(map[bkey]*bucket) //lint:allow hotalloc one bucket map per mailbox, created on first message
	}
	bk := b.buckets[k]
	if bk == nil {
		bk = b.getBucket()
		b.buckets[k] = bk
	}
	bk.push(m)
	b.pending++
}

// tryTake removes and returns the first message matching (ctx, src, tag),
// or nil. Caller holds b.mu.
func (b *mailbox) tryTake(ctx, src, tag int) *message {
	if b.pending == 0 {
		return nil
	}
	if src != AnySource {
		k := bkey{ctx, src, tag}
		bk := b.buckets[k]
		if bk == nil {
			return nil
		}
		m := bk.pop()
		if bk.empty() {
			delete(b.buckets, k)
			b.putBucket(bk)
		}
		b.pending--
		return m
	}
	// AnySource: earliest arrival among matching bucket heads. Map
	// iteration order is random, but the min-seq winner is not.
	var best *bucket
	var bestKey bkey
	for k, bk := range b.buckets {
		if k.ctx != ctx || k.tag != tag || bk.empty() {
			continue
		}
		if best == nil || bk.msgs[bk.head].seq < best.msgs[best.head].seq {
			best, bestKey = bk, k
		}
	}
	if best == nil {
		return nil
	}
	m := best.pop()
	if best.empty() {
		delete(b.buckets, bestKey)
		b.putBucket(best)
	}
	b.pending--
	return m
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
		b.wantCtx, b.wantSrc, b.wantTag = ctx, src, tag
		b.waiting = true
		if b.cond == nil {
			b.cond = sync.NewCond(&b.mu)
		}
		b.cond.Wait()
		b.waiting = false
	}
}

// interrupt wakes a blocked receiver so it can observe an abort.
func (b *mailbox) interrupt() {
	b.mu.Lock()
	if b.cond != nil {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}
