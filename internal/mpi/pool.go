package mpi

import (
	"math"
	"math/bits"
	"sync"
)

// Allocation fast path for the message-passing hot loop. Two mechanisms
// keep the per-message host cost near zero:
//
//   - message structs are recycled through a sync.Pool: a send gets a
//     struct from the pool and the matching receive returns it once the
//     payload has been handed to the caller. Nil-payload control
//     messages (barrier/dissemination traffic) therefore allocate
//     nothing at steady state.
//   - []float64 payloads make a round trip. A send clones its data into
//     a spare buffer, the receiver owns the slice it is handed, and
//     Comm.Release makes it a spare again, where a later send finds it.
//     A receiver that never releases costs that allocation and nothing
//     else.
//
// Spares live in two tiers. The first is the releasing rank's own free
// list (f64Arena), touched only by that rank and so lock-free: a halo
// exchange is symmetric, and a rank's sends are fed by what it received.
// The second is one store per world (spareStore), behind a mutex, which
// takes what a full list cannot hold and serves a clone its own list
// cannot. It exists because much traffic flows one way. A coupling
// unit's boundary rank sends its interface slice to every CU rank and
// gets back only a share of the replies; each CU rank releases a slice
// from every boundary rank and sends two. With lists alone the CU ranks'
// surplus went to the collector while the boundary ranks allocated
// afresh every exchange; through the store the one feeds the other. The
// store finds a fit by grain (grains.go), not by comparing capacities
// under its lock.
//
// The store is bounded by structure: a size class holds at most
// maxFreePerClass buffers per rank of the world, what the ranks' own
// lists could hold between them, so the two tiers together never keep
// more than twice what the lists alone could. A release past that bound
// leaves the buffer to the collector.
//
// A clone no spare can serve is allocated with its length rounded up to
// a grain, small ones carved from a per-rank chunk. The chunk stays because of the
// payloads nobody releases — above all collective results: the replayed
// Bcast hands every non-root rank a clone. Measured without it (free
// list only), the four bench workloads allocate the same bytes to within
// 1.5 % but mpi.coll512_allocs rises from 7.8k to 12.4k mallocs, one per
// unreleased 8-value clone instead of one per 128 of them.

// msgPool recycles message structs between a receive (which strips the
// payload) and the next send.
var msgPool = sync.Pool{New: func() any { return new(message) }}

func getMessage() *message { return msgPool.Get().(*message) }

// releaseMessage returns a consumed message to the pool. The caller must
// have taken ownership of any payload first; fields are cleared so the
// pool retains no payload or slice memory.
func releaseMessage(m *message) {
	*m = message{}
	msgPool.Put(m)
}

// maxFreePerClass bounds the released buffers a rank keeps in one size
// class, and, times the world size, those the world's store keeps. Six
// is the faces of a block in a 3-D decomposition, the most same-sized
// buffers a halo exchange has in flight. Measured with the store on the
// bench's engine workload (400 ranks a coupled run; medians of three
// runs, 2-core host), 4 / 6 / 8 / 16 give alloc_mib 74.9 / 65.2 / 65.6 /
// 71.9 and peak_rss_mib 47.5 / 43.3 / 43.5 / 46.3: below six the halo
// buffers of a block no longer fit a rank's list, and above it each list
// takes longer to fill before its surplus reaches the store.
const maxFreePerClass = 6

// f64Arena is where a rank's outgoing payload clones come from: its free
// list of released buffers, then the world's store, then its chunk. The
// list and chunk are only ever touched by the owning rank goroutine
// (sends and releases) or by the collective-replay leader while the
// owner is parked at the station, so they need no lock.
type f64Arena struct {
	// free[k] holds the buffers whose capacity is in [2^k, 2^(k+1)). It
	// grows to the largest class the rank has released.
	free  [][][]float64
	chunk []float64   // remaining free space of the current chunk
	store *spareStore // the world's second tier
}

// spareStore is a world's second tier of spare payload buffers, shared
// by all its ranks: what a rank's full list releases past its bound, for
// any rank's clone that its own list cannot serve. It files a buffer by
// the largest grain (grains.go) its capacity holds, so every buffer filed
// under a grain fits every request that grain serves, and a lookup pops
// without comparing capacities.
type spareStore struct {
	mu    sync.Mutex
	free  [][][]float64 // by grain
	held  []int         // buffers held per size class
	bound int           // buffers per size class: maxFreePerClass × world size
}

func newSpareStore(size int) *spareStore { return &spareStore{bound: maxFreePerClass * size} }

const (
	// arenaChunk is the size in float64s of one chunk.
	arenaChunk = 1024
	// arenaMax is the largest clone carved from a chunk; bigger ones get
	// exact private allocations.
	arenaMax = arenaChunk / 4
)

// noFloats is the payload every empty non-nil send delivers.
var noFloats = []float64{}

// sizeClass is the free-list index of a buffer of capacity n > 0.
func sizeClass(n int) int { return bits.Len(uint(n)) - 1 }

// clone returns a private copy of d for the receiving rank: in a spare
// buffer when the rank's list or the world's store holds one that fits,
// freshly allocated (small ones carved from the chunk) otherwise. A fresh
// buffer's capacity is rounded up to a grain, so that once released it
// serves a clone of its own length from the store.
//
//perf:hotpath
func (a *f64Arena) clone(d []float64) []float64 {
	n := len(d)
	if n == 0 {
		if d == nil {
			return nil
		}
		return noFloats
	}
	out := a.take(n)
	if out == nil {
		out = a.store.take(n)
	}
	switch {
	case out != nil:
	case n > arenaMax:
		out = make([]float64, n, grainCap(n)) //lint:allow hotalloc no spare fits: first exchanges, and receivers that do not release
	default:
		g := grainCap(n)
		if len(a.chunk) < g {
			a.chunk = make([]float64, arenaChunk) //lint:allow hotalloc one chunk serves hundreds of small unreleased payloads
		}
		out = a.chunk[:n:g]
		a.chunk = a.chunk[g:]
	}
	copy(out, d)
	return out
}

// take removes and returns a free buffer of length n, or nil: the
// smallest that fits in n's own class, else the smallest of the next
// class that has any. Falling through to larger classes lets a rank whose
// exchanges differ in size (the levels of a multigrid cycle) circulate
// one set of buffers instead of keeping one per size.
//
//perf:hotpath
func (a *f64Arena) take(n int) []float64 {
	for k := sizeClass(n); k < len(a.free); k++ {
		list := a.free[k]
		best := -1
		for i, b := range list {
			if cap(b) >= n && (best < 0 || cap(b) < cap(list[best])) {
				best = i
			}
		}
		if best >= 0 {
			b, last := list[best], len(list)-1
			list[best], list[last] = list[last], nil
			a.free[k] = list[:last]
			return b[:n]
		}
	}
	return nil
}

// release puts buf's backing array on the rank's free list, or, with its
// class full there, in the world's store. The race build
// (poisonReleased) first checks that it is in neither already and fills
// it with NaN, so a read after Release cannot go unnoticed in `make
// race`.
//
//perf:hotpath
func (a *f64Arena) release(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	k := sizeClass(len(buf))
	if poisonReleased {
		if holds(a.free, k, buf) || a.store.holds(buf) {
			panic("mpi: Release of a buffer that is already released")
		}
		nan := math.NaN()
		for i := range buf {
			buf[i] = nan
		}
	}
	for k >= len(a.free) {
		a.free = append(a.free, nil) //lint:allow hotalloc grows once, to the largest class this rank releases
	}
	switch {
	case len(a.free[k]) < maxFreePerClass:
		a.free[k] = append(a.free[k], buf) //lint:allow hotalloc amortised, bounded by maxFreePerClass
	default:
		a.store.put(k, buf)
	}
}

// holds reports whether free[k] holds buf's backing array.
func holds(free [][][]float64, k int, buf []float64) bool {
	if k < len(free) {
		for _, b := range free[k] {
			if &b[0] == &buf[0] {
				return true
			}
		}
	}
	return false
}

// take removes and returns a spare of length n, or nil: from the
// smallest grain that serves n, or failing that from the next grains up
// to twice n's, so that a clone borrows at most twice its length.
//
//perf:hotpath
func (s *spareStore) take(n int) []float64 {
	g := grainOf(n)
	if grainSize(g) < n {
		g++
	}
	s.mu.Lock()
	for last := min(g+grainsPerClass, len(s.free)-1); g <= last; g++ {
		if list := s.free[g]; len(list) > 0 {
			b := list[len(list)-1]
			list[len(list)-1] = nil
			s.free[g] = list[:len(list)-1]
			s.held[sizeClass(cap(b))]--
			s.mu.Unlock()
			return b[:n]
		}
	}
	s.mu.Unlock()
	return nil
}

// put stores buf, a full-capacity buffer of size class k, unless the
// class is at its bound.
//
//perf:hotpath
func (s *spareStore) put(k int, buf []float64) {
	g := grainOf(len(buf))
	s.mu.Lock()
	for k >= len(s.held) {
		s.held = append(s.held, 0) //lint:allow hotalloc grows once, to the largest class any rank releases
	}
	if s.held[k] < s.bound {
		for g >= len(s.free) {
			s.free = append(s.free, nil) //lint:allow hotalloc grows once, to the largest grain any rank releases
		}
		s.free[g] = append(s.free[g], buf) //lint:allow hotalloc amortised, bounded by maxFreePerClass × world size a class
		s.held[k]++
	}
	s.mu.Unlock()
}

// holds reports whether the store holds buf's backing array; the race
// build's double-release check.
func (s *spareStore) holds(buf []float64) bool {
	g := grainOf(cap(buf))
	s.mu.Lock()
	defer s.mu.Unlock()
	return g < len(s.free) && holds(s.free, g, buf)
}
