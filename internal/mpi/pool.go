package mpi

import "sync"

// Allocation fast path for the message-passing hot loop. Two mechanisms
// keep the per-message host cost near zero:
//
//   - message structs are recycled through a sync.Pool: a send gets a
//     struct from the pool and the matching receive returns it once the
//     payload has been handed to the caller. Nil-payload control
//     messages (barrier/dissemination traffic) therefore allocate
//     nothing at steady state.
//   - []float64 payload clones are carved from a per-rank bump arena:
//     one chunk allocation amortises across hundreds of small messages.
//     Ownership of the carved slice transfers to the receiver, so the
//     arena never reuses a carved region; a retained payload pins at
//     most one chunk (arenaChunk floats) against the GC.

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

const (
	// arenaChunk is the size in float64s of one arena chunk.
	arenaChunk = 1024
	// arenaMax is the largest clone served from the arena; bigger
	// payloads get exact private allocations.
	arenaMax = arenaChunk / 4
)

// f64Arena is a per-rank bump allocator for outgoing payload clones. It
// is only ever touched by its owning rank goroutine (during sends) or by
// the collective-replay leader while the owner is parked at the station,
// so it needs no lock.
type f64Arena struct {
	chunk []float64 // remaining free space of the current chunk
}

// clone returns a private copy of d whose backing memory comes from the
// arena for small payloads. The copy is handed to the receiving rank and
// is never recycled.
func (a *f64Arena) clone(d []float64) []float64 {
	n := len(d)
	if n == 0 {
		if d == nil {
			return nil
		}
		return []float64{}
	}
	if n > arenaMax {
		out := make([]float64, n)
		copy(out, d)
		return out
	}
	if len(a.chunk) < n {
		a.chunk = make([]float64, arenaChunk)
	}
	out := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	copy(out, d)
	return out
}
