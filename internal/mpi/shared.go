package mpi

import "fmt"

// sharedEntry is one key's value in a World's memo of read-only set-up
// state (Shared); done closes once build has returned or panicked, ok
// tells the two apart.
type sharedEntry struct {
	done chan struct{}
	val  any
	ok   bool
}

// Shared returns the value build computes for key, computed once per run:
// the first rank of c's world to ask (a sub-communicator resolves to its
// world, so the instances of a coupled run share) runs build on its own
// goroutine, ranks asking meanwhile wait for it, different keys build
// concurrently, and every caller gets the same value. It is for set-up
// state that is a pure function of key and stays read-only afterwards —
// an operator, a face's node list — which every simulated rank would
// otherwise rebuild bit for bit (DESIGN.md §5.12): host work is shared,
// virtual cost is not. Shared touches no clock, message, trace event or Stats
// field, so each rank charges the build's modelled cost itself exactly as
// if it had built alone. The memo belongs to the run and dies with it.
//
// key must be comparable and hold everything that determines the value's
// bytes; give each call site its own unexported key type so that packages
// cannot collide. build must not use c. If build panics, the run fails:
// the builder unwinds with the panic and the ranks waiting on it abort.
func Shared[T any](c *Comm, key any, build func() T) T {
	w := c.world
	w.sharedMu.Lock()
	e, found := w.shared[key]
	if !found {
		e = &sharedEntry{done: make(chan struct{})}
		w.shared[key] = e
	}
	w.sharedMu.Unlock()
	if !found {
		defer func() {
			if !e.ok {
				w.fail(fmt.Errorf("mpi: Shared: build of %T%+v panicked on rank %d", key, key, c.proc.worldRank))
			}
			close(e.done)
		}()
		e.val = build()
		e.ok = true
		return e.val.(T)
	}
	<-e.done
	if !e.ok {
		panic(errAborted)
	}
	return e.val.(T)
}
