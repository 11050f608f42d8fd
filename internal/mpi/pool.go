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
//     a buffer from the sending rank's free list, the receiver owns the
//     slice it is handed, and Comm.Release puts it on the *receiving*
//     rank's free list, where that rank's next send finds it. Exchanges
//     are mostly symmetric, so after the first one a rank's sends are
//     fed by what it received, and a clone allocates only when the list
//     has nothing large enough. A receiver that never releases costs
//     that allocation and nothing else.
//
// A clone the list cannot serve is allocated exactly, except that small
// ones are carved from a per-rank chunk. The chunk stays because of the
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
// class; a release beyond it leaves the buffer to the collector. Without
// a bound a rank that receives more than it sends (the outlet end of a
// droplet drift, a coupling unit gathering from every boundary rank)
// would grow its list every step. Six is the faces of a block in a 3-D
// decomposition, the most same-sized buffers a halo exchange has in
// flight. Measured on the bench's engine workload (800 ranks), 4 / 6 /
// 8 / 16 give alloc_mib 356 / 351 / 351 / 351 and peak_rss_mib 77 / 78 /
// 80 / 86 against 900 and 76 with no free list: past six the list only
// retains memory.
const maxFreePerClass = 6

// f64Arena is where a rank's outgoing payload clones come from: its free
// list of released buffers, then its chunk. It is only ever touched by
// its owning rank goroutine (sends and releases) or by the
// collective-replay leader while the owner is parked at the station, so
// it needs no lock.
type f64Arena struct {
	// free[k] holds the buffers whose capacity is in [2^k, 2^(k+1)). It
	// grows to the largest class the rank has released.
	free  [][][]float64
	chunk []float64 // remaining free space of the current chunk
}

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

// clone returns a private copy of d for the receiving rank: in a released
// buffer when the list holds one that fits, freshly allocated (small
// ones carved from the chunk) otherwise.
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
	switch {
	case out != nil:
	case n > arenaMax:
		out = make([]float64, n) //lint:allow hotalloc the list had no buffer that fits: first exchanges, and receivers that do not release
	default:
		if len(a.chunk) < n {
			a.chunk = make([]float64, arenaChunk) //lint:allow hotalloc one chunk serves hundreds of small unreleased payloads
		}
		out = a.chunk[:n:n]
		a.chunk = a.chunk[n:]
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

// release puts buf's backing array on the free list. The race build
// (poisonReleased) first checks that it is not there already and fills it
// with NaN, so a read after Release cannot go unnoticed in `make race`.
//
//perf:hotpath
func (a *f64Arena) release(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	k := sizeClass(len(buf))
	if poisonReleased {
		if k < len(a.free) {
			for _, b := range a.free[k] {
				if &b[0] == &buf[0] {
					panic("mpi: Release of a buffer that is already released")
				}
			}
		}
		nan := math.NaN()
		for i := range buf {
			buf[i] = nan
		}
	}
	for k >= len(a.free) {
		a.free = append(a.free, nil) //lint:allow hotalloc grows once, to the largest class this rank releases
	}
	if len(a.free[k]) < maxFreePerClass {
		a.free[k] = append(a.free[k], buf) //lint:allow hotalloc amortised, bounded by maxFreePerClass
	}
}
