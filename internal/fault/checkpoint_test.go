package fault

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// snap saves a one-value snapshot holding x, for store tests that only
// look at which step commits.
func snap(x int) Snapshot { return Save(func(st *State) { st.Int(&x) }) }

func TestStoreCommitsOnlyCompleteSteps(t *testing.T) {
	st := NewStore(3)
	if _, _, ok := st.Last(); ok {
		t.Fatal("fresh store claims a checkpoint")
	}
	// Only two ranks commit: no commit (crash mid-checkpoint).
	st.Commit(0, 4, snap(0), 1.5)
	st.Commit(1, 4, snap(1), 1.5)
	if _, _, ok := st.Last(); ok {
		t.Fatal("checkpoint committed without every rank")
	}
	st.Commit(2, 4, snap(2), 1.5)
	step, clock, ok := st.Last()
	if !ok || step != 4 || clock != 1.5 {
		t.Fatalf("Last = (%d, %v, %v), want (4, 1.5, true)", step, clock, ok)
	}
	s1, ok := st.Load(1)
	got := -1
	if !ok || s1.Restore(func(st *State) { st.Int(&got) }) != nil || got != 1 {
		t.Fatalf("Load(1) restored %d, %v", got, ok)
	}

	// A later incomplete step must not disturb the committed one.
	st.Commit(0, 8, snap(-1), 3.0)
	if step, _, _ := st.Last(); step != 4 {
		t.Fatal("incomplete step overwrote the committed checkpoint")
	}
	for r := 0; r < 3; r++ {
		st.Commit(r, 12, snap(r*10), 6.0)
	}
	if step, clock, _ := st.Last(); step != 12 || clock != 6.0 {
		t.Fatalf("second commit Last = (%d, %v)", step, clock)
	}
	// A step older than the committed one never commits again.
	for r := 0; r < 3; r++ {
		st.Commit(r, 8, snap(r), 3.0)
	}
	if step, _, _ := st.Last(); step != 12 {
		t.Fatalf("stale step 8 replaced step 12")
	}
}

// TestStoreCommitIgnoresHostOrder is the schedule a coupled run's rank
// goroutines can take: rank 0 is through step 6's checkpoint before
// rank 2 has reported step 4. Step 4 must still commit.
func TestStoreCommitIgnoresHostOrder(t *testing.T) {
	st := NewStore(3)
	st.Commit(0, 4, snap(0), 1.5)
	st.Commit(1, 4, snap(1), 1.5)
	st.Commit(0, 6, snap(0), 2.5)
	st.Commit(2, 4, snap(2), 1.5)
	if step, clock, ok := st.Last(); !ok || step != 4 || clock != 1.5 {
		t.Fatalf("Last = (%d, %v, %v), want (4, 1.5, true)", step, clock, ok)
	}
	st.Commit(2, 6, snap(2), 2.5)
	st.Commit(1, 6, snap(1), 2.5)
	if step, clock, _ := st.Last(); step != 6 || clock != 2.5 {
		t.Fatalf("Last = (%d, %v), want (6, 2.5)", step, clock)
	}
}

// TestStoreConcurrentCommits commits three steps from one goroutine
// per rank, as a resilient run's ranks do; the last step commits with
// every rank's snapshot.
func TestStoreConcurrentCommits(t *testing.T) {
	const ranks = 16
	st := NewStore(ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for step := 2; step <= 6; step += 2 {
				st.Commit(r, step, snap(r*step), float64(step))
			}
		}(r)
	}
	wg.Wait()
	if step, clock, ok := st.Last(); !ok || step != 6 || clock != 6 {
		t.Fatalf("Last = (%d, %v, %v), want (6, 6, true)", step, clock, ok)
	}
	for r := 0; r < ranks; r++ {
		s, _ := st.Load(r)
		got := -1
		if err := s.Restore(func(st *State) { st.Int(&got) }); err != nil || got != r*6 {
			t.Errorf("rank %d restored %d (%v), want %d", r, got, err, r*6)
		}
	}
}

var errBadEncoding = errors.New("bad encoding")

// fields is a state with every kind of value a walk visits.
type fields struct {
	f, negZero      float64
	i               int
	i64lo, i64hi    int64
	xs, none, empty []float64
	kept            []int
	encoded         []float64
}

func (s *fields) walk(st *State) {
	st.Float(&s.f)
	st.Float(&s.negZero)
	st.Int(&s.i)
	st.Int64(&s.i64lo)
	st.Int64(&s.i64hi)
	st.Floats(&s.xs)
	st.Floats(&s.none)
	st.Floats(&s.empty)
	Keep(st, func() []int { return append([]int(nil), s.kept...) }, func(k []int) { s.kept = k })
	st.Encoded(func() []float64 { return s.encoded }, func(enc []float64) error {
		s.encoded = enc
		return nil
	})
}

func bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestStateRoundTripIsBitExact: save → restore puts back NaN payloads,
// signed zeros, integer extremes and nil-versus-empty slices exactly,
// and the restored state hashes as the saved one did. SIMPIC's nil
// field cache, for one, means "solve the field next step".
func TestStateRoundTripIsBitExact(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	orig := fields{
		f: nan, negZero: math.Copysign(0, -1), i: math.MinInt,
		i64lo: math.MinInt64, i64hi: math.MaxInt64,
		xs:    []float64{nan, math.Inf(-1), math.SmallestNonzeroFloat64},
		empty: []float64{}, kept: []int{3, 1},
		encoded: []float64{math.Float64frombits(0xfff0_0000_0000_0002)},
	}
	s := orig
	want := Hash(s.walk)
	snapshot := Save(s.walk)
	// Scribble over every field, through the backing arrays too.
	s.xs[0], s.kept[0] = 1, 9
	s = fields{xs: s.xs, none: []float64{7}, kept: s.kept}
	if err := snapshot.Restore(s.walk); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(s.f) != math.Float64bits(orig.f) || math.Float64bits(s.negZero) != 1<<63 {
		t.Errorf("floats restored as %x, %x", math.Float64bits(s.f), math.Float64bits(s.negZero))
	}
	if s.i != orig.i || s.i64lo != orig.i64lo || s.i64hi != orig.i64hi {
		t.Errorf("ints restored as %d, %d, %d", s.i, s.i64lo, s.i64hi)
	}
	if got := bits(s.xs); len(got) != 3 || got[0] != math.Float64bits(nan) || got[2] != 1 {
		t.Errorf("slice restored as %x", got)
	}
	if s.none != nil || s.empty == nil || len(s.empty) != 0 {
		t.Errorf("nil/empty restored as %#v/%#v", s.none, s.empty)
	}
	if len(s.kept) != 2 || s.kept[0] != 3 {
		t.Errorf("kept value restored as %v: the save aliased it", s.kept)
	}
	if bits(s.encoded)[0] != 0xfff0_0000_0000_0002 {
		t.Errorf("encoded value restored as %x", bits(s.encoded))
	}
	if got := Hash(s.walk); got != want {
		t.Errorf("restored state hashes %#x, saved state %#x", got, want)
	}
}

// TestStateRestoreRejectsAnotherWalk: a snapshot with too few or too
// many values, or a value of another type where the walk visits one, is
// an error, as is a failing decode of an encoded value.
func TestStateRestoreRejectsAnotherWalk(t *testing.T) {
	one := func(st *State) { x := 1.0; st.Float(&x) }
	two := func(st *State) { one(st); one(st) }
	slice := func(st *State) { var xs []float64; st.Floats(&xs) }
	failing := func(st *State) {
		st.Encoded(func() []float64 { return nil }, func([]float64) error { return errBadEncoding })
	}
	cases := []struct {
		name       string
		save, load func(*State)
		want       string
	}{
		{"too few", one, two, "visits more"},
		{"too many", two, one, "holds 2 values, the walk visits 1"},
		{"another type", one, slice, "is a uint64, the walk visits a []float64"},
		{"decode", slice, failing, errBadEncoding.Error()},
	}
	for _, c := range cases {
		err := Save(c.save).Restore(c.load)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestStateHashMatchesDigest: the hash mode emits the same FNV stream as
// feeding the fields to a Digest by hand, and skips kept values.
func TestStateHashMatchesDigest(t *testing.T) {
	s := fields{
		f: 1.5, negZero: math.Copysign(0, -1), i: -3, i64lo: math.MinInt64, i64hi: 7,
		xs: []float64{1, 2}, empty: []float64{}, kept: []int{5}, encoded: []float64{4},
	}
	d := NewDigest()
	d.Float(s.f)
	d.Float(s.negZero)
	d.Int(s.i)
	d.Int(int(s.i64lo))
	d.Int(int(s.i64hi))
	d.Floats(s.xs)
	d.Floats(s.encoded)
	if got, want := Hash(s.walk), d.Sum64(); got != want {
		t.Errorf("Hash = %#x, Digest = %#x", got, want)
	}
}
