package fault

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// RankFailure is the ULFM-style error a receive (or a collective built
// on receives) surfaces when its peer died: the runtime advances the
// survivor's clock to the modelled detection time and unwinds with this
// error instead of waiting on a peer that can never send.
type RankFailure struct {
	Rank       int     // world rank that died
	FailedAt   float64 // virtual time of death
	DetectedAt float64 // virtual time the survivor learned of it
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("fault: rank %d failed at t=%.6gs (detected t=%.6gs)", e.Rank, e.FailedAt, e.DetectedAt)
}

// RanksFailed is the run-level error mpi.Run returns when a fault plan
// killed ranks: the world did not abort — survivors unwound with
// RankFailure errors or finished — and the job needs recovery.
type RanksFailed struct {
	Crashed  []int   // ranks killed by the plan, ascending
	FailedAt float64 // earliest crash time (start of lost work)
	// Detections are the survivors' failure observations, by world rank
	// ascending.
	Detections []RankFailure
}

func (e *RanksFailed) Error() string {
	return fmt.Sprintf("fault: %d rank(s) failed (first at t=%.6gs): %v", len(e.Crashed), e.FailedAt, e.Crashed)
}

// State is one walk over a solver's recoverable state. A solver lists
// its mutable fields once, in a method that visits each with the
// matching State call; the walk's mode decides what a visit does: Save
// deep-copies the fields into a Snapshot, Snapshot.Restore writes them
// back, and Hash folds them into a Digest.
type State struct {
	mode walkMode
	vals []any // saved values in visiting order
	pos  int   // next value a restore reads
	err  error // first restore failure
	d    *Digest
}

type walkMode int

const (
	saving walkMode = iota
	restoring
	hashing
)

// Snapshot is one rank's contribution to a coordinated checkpoint: the
// values a Save walk copied, in visiting order.
type Snapshot struct{ vals []any }

// Save walks the state and returns a deep copy of it.
func Save(walk func(*State)) Snapshot {
	st := &State{mode: saving}
	walk(st)
	return Snapshot{vals: st.vals}
}

// Restore walks the state, overwriting each field with its saved value.
// It fails when the walk visits more or fewer values than the snapshot
// holds, or a value of another type, as a walk of another solver does.
func (s Snapshot) Restore(walk func(*State)) error {
	st := &State{mode: restoring, vals: s.vals}
	walk(st)
	if st.err == nil && st.pos != len(st.vals) {
		st.err = fmt.Errorf("fault: snapshot holds %d values, the walk visits %d", len(st.vals), st.pos)
	}
	return st.err
}

// Hash walks the state and returns its Digest, for bitwise
// restart-equivalence checks.
func Hash(walk func(*State)) uint64 {
	st := &State{mode: hashing, d: NewDigest()}
	walk(st)
	return st.d.Sum64()
}

// Floats visits a slice field. A restore keeps nil apart from empty and
// reuses the field's backing array when it is large enough.
func (st *State) Floats(xs *[]float64) {
	switch st.mode {
	case saving:
		st.vals = append(st.vals, slices.Clone(*xs))
	case restoring:
		v, ok := next[[]float64](st)
		switch {
		case !ok:
		case v == nil || *xs == nil:
			*xs = slices.Clone(v)
		default:
			*xs = append((*xs)[:0], v...)
		}
	default:
		st.d.Floats(*xs)
	}
}

// Float visits a float64 field.
func (st *State) Float(x *float64) {
	if b, ok := st.word(math.Float64bits(*x)); ok {
		*x = math.Float64frombits(b)
	}
}

// Int visits an int field.
func (st *State) Int(x *int) {
	if b, ok := st.word(uint64(*x)); ok {
		*x = int(b)
	}
}

// Int64 visits an int64 field.
func (st *State) Int64(x *int64) {
	if b, ok := st.word(uint64(*x)); ok {
		*x = int64(b)
	}
}

// word saves or hashes a scalar field's bits; on a restore it returns
// the saved bits instead.
func (st *State) word(bits uint64) (uint64, bool) {
	switch st.mode {
	case saving:
		st.vals = append(st.vals, bits)
	case restoring:
		return next[uint64](st)
	default:
		st.d.word(bits)
	}
	return 0, false
}

// Encoded visits state held in a structure the walk cannot name field by
// field, such as a partition tree: a save keeps and a hash folds enc's
// flat encoding, and a restore hands the saved one to dec, whose error
// fails the restore.
func (st *State) Encoded(enc func() []float64, dec func([]float64) error) {
	if st.mode != restoring {
		xs := enc()
		st.Floats(&xs)
		return
	}
	if v, ok := next[[]float64](st); ok {
		st.err = dec(v)
	}
}

// Keep visits state that deep-copies itself whole, such as a coupling
// unit's donor cache: a save keeps save's copy, a restore hands it back
// to restore, and a hash skips it, so its owner hashes it separately.
func Keep[T any](st *State, save func() T, restore func(T)) {
	switch st.mode {
	case saving:
		st.vals = append(st.vals, save())
	case restoring:
		if v, ok := next[T](st); ok {
			restore(v)
		}
	}
}

// next returns the next saved value of a restore, or false when the
// walk has already failed or the value is missing or of another type.
func next[T any](st *State) (T, bool) {
	var v T
	if st.err != nil {
		return v, false
	}
	if st.pos == len(st.vals) {
		st.err = fmt.Errorf("fault: snapshot holds %d values, the walk visits more", len(st.vals))
		return v, false
	}
	v, ok := st.vals[st.pos].(T)
	if !ok {
		st.err = fmt.Errorf("fault: snapshot value %d is a %T, the walk visits a %T", st.pos, st.vals[st.pos], v)
		return v, false
	}
	st.pos++
	return v, true
}

// Store holds coordinated checkpoints for one job across restart
// attempts. A rank commits its snapshot of a step once the step's
// CheckpointSync has returned: that collective fails if any rank died,
// so the step becomes the recovery point only when every rank has
// committed it, and a crash mid-checkpoint rolls back to the previous
// complete one, like an atomic-rename checkpoint file set. Steps
// pending commit are kept apart, so the order in which rank goroutines
// report cannot change which step commits.
type Store struct {
	mu      sync.Mutex
	ranks   int
	pending map[int]map[int]Snapshot // by step, then rank

	snaps []Snapshot // last committed checkpoint, by rank
	step  int        // its step count
	clock float64    // its synchronized virtual time
	ok    bool
}

// NewStore creates a checkpoint store for a world of the given size.
func NewStore(ranks int) *Store {
	return &Store{ranks: ranks, pending: make(map[int]map[int]Snapshot)}
}

// Commit records a rank's snapshot of `step`, taken before the step's
// CheckpointSync returned the synchronized time t. When every rank has
// committed the step, it becomes the recovery point.
func (st *Store) Commit(rank, step int, snap Snapshot, t float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ok && step <= st.step {
		return
	}
	p := st.pending[step]
	if p == nil {
		p = make(map[int]Snapshot, st.ranks)
		st.pending[step] = p
	}
	p[rank] = snap
	if len(p) < st.ranks {
		return
	}
	st.snaps = make([]Snapshot, st.ranks)
	for r := range st.snaps {
		st.snaps[r] = p[r]
	}
	st.step, st.clock, st.ok = step, t, true
	for s := range st.pending {
		if s <= step {
			delete(st.pending, s)
		}
	}
}

// Last returns the committed checkpoint's step and synchronized clock;
// ok is false when no checkpoint has committed yet.
func (st *Store) Last() (step int, clock float64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.step, st.clock, st.ok
}

// Load returns a rank's snapshot from the committed checkpoint.
func (st *Store) Load(rank int) (Snapshot, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.ok || rank < 0 || rank >= len(st.snaps) {
		return Snapshot{}, false
	}
	return st.snaps[rank], true
}

// Digest is an FNV-1a hash over exact float64 bit patterns, used by the
// differential resilience tests to compare final physics states bitwise.
type Digest struct{ h uint64 }

// NewDigest returns an initialised digest.
func NewDigest() *Digest { return &Digest{h: 14695981039346656037} }

func (d *Digest) word(w uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= w & 0xff
		d.h *= 1099511628211
		w >>= 8
	}
}

// Float folds one float64's bit pattern into the digest.
func (d *Digest) Float(x float64) { d.word(math.Float64bits(x)) }

// Floats folds a slice in order.
func (d *Digest) Floats(xs []float64) {
	for _, x := range xs {
		d.Float(x)
	}
}

// Int folds an integer.
func (d *Digest) Int(i int) { d.word(uint64(i)) }

// Sum64 returns the digest value.
func (d *Digest) Sum64() uint64 { return d.h }
