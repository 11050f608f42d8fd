package mpi

import (
	"math/rand"
	"testing"
)

// refMailbox is the mailbox's matching before its buckets moved into a
// slot slice: one FIFO per (ctx, src, tag) key in a map, and an
// AnySource take that picks the earliest arrival among the heads of its
// (ctx, tag) — the reference the slot search is held to.
type refMailbox struct {
	fifos map[bkey][]refEntry
	seq   uint64
}

type refEntry struct {
	m   *message
	seq uint64
}

func (r *refMailbox) put(m *message) {
	k := bkey{m.ctx, m.src, m.tag}
	r.fifos[k] = append(r.fifos[k], refEntry{m, r.seq})
	r.seq++
}

func (r *refMailbox) take(ctx, src, tag int) *message {
	var best bkey
	found := false
	if src != AnySource {
		best = bkey{ctx, src, tag}
		found = len(r.fifos[best]) > 0
	} else {
		for k, q := range r.fifos {
			if k.ctx == ctx && k.tag == tag && len(q) > 0 &&
				(!found || q[0].seq < r.fifos[best][0].seq) {
				best, found = k, true
			}
		}
	}
	if !found {
		return nil
	}
	q := r.fifos[best]
	if len(q) == 1 {
		delete(r.fifos, best)
	} else {
		r.fifos[best] = q[1:]
	}
	return q[0].m
}

// TestMailboxMatchesMapReference drives a mailbox and the map-keyed
// reference with the same seeded stream of puts, exact-source takes and
// AnySource takes, over key ranges from a few live buckets to hundreds,
// and requires every take to return the same message and, every 1,000
// operations, as many messages pending in as many buckets. The stream
// ends by draining both. Most streams pass wideSlots live buckets and
// narrow again, so the key index and its upkeep across swap-removals are
// held to the reference too.
func TestMailboxMatchesMapReference(t *testing.T) {
	narrowed := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srcs := 2 + rng.Intn(100)
		var sent []bkey // the keys of the puts so far
		var b mailbox
		ref := refMailbox{fifos: map[bkey][]refEntry{}}
		take := func(op int, ctx, src, tag int) {
			wide := b.wide
			got, want := b.tryTake(ctx, src, tag), ref.take(ctx, src, tag)
			if got != want {
				t.Fatalf("seed %d op %d: take(%d, %d, %d) = %v, reference %v", seed, op, ctx, src, tag, got, want)
			}
			if wide && !b.wide {
				narrowed++
			}
		}
		for op := 0; op < 20_000; op++ {
			// Each 2,000 operations open with 500 of mostly puts and close
			// with 1,500 of mostly takes, so the live buckets swell past
			// wideSlots and drain below a quarter of it.
			puts := 1
			if op%2000 < 500 {
				puts = 8
			}
			ctx, src, tag := rng.Intn(2), rng.Intn(srcs), rng.Intn(3)
			if len(sent) > 0 && rng.Intn(2) == 0 {
				// Half the operations name the key of one of the last 64
				// puts, so that most such takes find a bucket.
				k := sent[len(sent)-1-rng.Intn(min(len(sent), 64))]
				ctx, src, tag = k.ctx, k.src, k.tag
			}
			switch r := rng.Intn(10); {
			case r < puts:
				m := &message{ctx: ctx, src: src, tag: tag, bytes: op}
				b.enqueue(m)
				ref.put(m)
				sent = append(sent, bkey{ctx, src, tag})
			case r < puts+(10-puts)*2/3:
				take(op, ctx, src, tag)
			default:
				take(op, ctx, AnySource, tag)
			}
			if n := 0; op%1000 == 0 {
				for _, q := range ref.fifos {
					n += len(q)
				}
				if b.pending != n || len(b.slots) != len(ref.fifos) {
					t.Fatalf("seed %d op %d: %d pending in %d slots, reference %d in %d buckets",
						seed, op, b.pending, len(b.slots), n, len(ref.fifos))
				}
			}
		}
		for ctx := 0; ctx < 2; ctx++ {
			for tag := 0; tag < 3; tag++ {
				for {
					got, want := b.tryTake(ctx, AnySource, tag), ref.take(ctx, AnySource, tag)
					if got != want {
						t.Fatalf("seed %d: the drain of (%d, %d) diverged", seed, ctx, tag)
					}
					if got == nil {
						break
					}
				}
			}
		}
		if b.pending != 0 || len(b.slots) != 0 || len(ref.fifos) != 0 {
			t.Fatalf("seed %d: after the drain %d pending in %d slots, reference %d buckets", seed, b.pending, len(b.slots), len(ref.fifos))
		}
	}
	if narrowed == 0 {
		t.Error("no stream's mailbox went wide and narrowed again mid-stream")
	}
	t.Logf("%d mid-stream narrowings", narrowed)
}

// TestMailboxWideFanIn is the slot search's worst case: 4,096 senders
// each leave one message with a receiver, which takes them by explicit
// source in the reverse of their send order, twice over (the second
// round runs on recycled buckets). The mailbox must have indexed its
// slots, so that the takes do not scan them (a scan per take made this
// round 27 times slower than a hash map's), every take must find its
// source's message and the mailbox must end empty.
func TestMailboxWideFanIn(t *testing.T) {
	const senders = 4096
	var b mailbox
	msgs := make([]message, senders)
	for round := 0; round < 2; round++ {
		for src := range msgs {
			msgs[src] = message{src: src, tag: 7}
			b.enqueue(&msgs[src])
		}
		if !b.wide {
			t.Fatalf("round %d: %d live buckets left the mailbox scanning them", round, len(b.slots))
		}
		for src := senders - 1; src >= 0; src-- {
			if m := b.tryTake(0, src, 7); m != &msgs[src] {
				t.Fatalf("round %d: take from %d returned %v", round, src, m)
			}
		}
		if b.pending != 0 || len(b.slots) != 0 {
			t.Fatalf("round %d: %d pending in %d slots after the fan-in", round, b.pending, len(b.slots))
		}
	}
}
