package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sameArray reports whether two non-empty slices start at the same
// element of the same backing array.
func sameArray(a, b []float64) bool { return &a[:1][0] == &b[:1][0] }

// TestReleasedPayloadFeedsTheNextSend follows one buffer round the
// ownership loop: rank 1 releases what it received and its own next send
// travels in that memory, so rank 0 — which releases too — gets its first
// payload's backing array back on the second exchange.
func TestReleasedPayloadFeedsTheNextSend(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		var first []float64
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				c.Send(peer, 0, []float64{1, 2, 3, float64(i)})
			}
			d, _, _ := c.Recv(peer, 0)
			if len(d) != 4 || d[3] != float64(i) {
				return fmt.Errorf("exchange %d: payload %v", i, d)
			}
			if c.Rank() == 1 {
				// Echo from a buffer this rank keeps: the clone is what
				// must come off the free list.
				echo := [4]float64{d[0], d[1], d[2], d[3]}
				c.Release(d)
				c.Send(peer, 0, echo[:])
				continue
			}
			if i == 0 {
				first = d[:4:4]
			} else if !sameArray(first, d) {
				return fmt.Errorf("exchange %d: payload did not travel in the released buffer", i)
			}
			c.Release(d)
		}
		return nil
	})
}

// TestFreeListFit pins the arena's lookup order: the smallest fit inside
// the request's own capacity class, then a larger class, never a buffer
// that is too small; and its bound: a class keeps maxFreePerClass buffers.
func TestFreeListFit(t *testing.T) {
	a := f64Arena{store: newSpareStore(1)}
	b5, b7, b40 := make([]float64, 5), make([]float64, 7), make([]float64, 40)
	b6 := make([]float64, 6)
	for _, b := range [][]float64{b7, b5, b6, b40} {
		a.release(b)
	}
	if got := a.take(6); !sameArray(got, b6) || len(got) != 6 {
		t.Errorf("take(6) did not pick the 6-cap buffer among 7, 5 and 6")
	}
	if got := a.take(6); !sameArray(got, b7) || len(got) != 6 {
		t.Errorf("take(6) skipped the 7-cap buffer of its own class")
	}
	if got := a.take(6); !sameArray(got, b40) || len(got) != 6 {
		t.Errorf("take(6) with its class short did not fall through to the larger class")
	}
	if got := a.take(6); got != nil {
		t.Errorf("take(6) returned a %d-cap buffer", cap(got))
	}
	if got := a.take(5); !sameArray(got, b5) {
		t.Errorf("take(5) missed the 5-cap buffer")
	}
	if got := a.take(64); got != nil {
		t.Errorf("take past the largest class returned a %d-cap buffer", cap(got))
	}
	a.release(nil)
	a.release([]float64{})
	for i := 0; i < 2*maxFreePerClass; i++ {
		a.release(make([]float64, 8))
	}
	if n := len(a.free[sizeClass(8)]); n != maxFreePerClass {
		t.Errorf("class holds %d buffers, bound %d", n, maxFreePerClass)
	}
}

// TestReleasePoisonsUnderRace is the use-after-release oracle: in a race
// build a rank that reads a payload after releasing it sees NaN, and a
// second Release of the same buffer panics. Other builds skip.
func TestReleasePoisonsUnderRace(t *testing.T) {
	if !poisonReleased {
		t.Skip("the poison is armed by the race build tag")
	}
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
			return nil
		}
		d, _, _ := c.Recv(0, 0)
		c.Release(d)
		for i, v := range d {
			if !math.IsNaN(v) {
				return fmt.Errorf("d[%d] = %v after Release, want NaN", i, v)
			}
		}
		return nil
	})
	_, err := Run(2, testCfg(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
			return nil
		}
		d, _, _ := c.Recv(0, 0)
		c.Release(d)
		c.Release(d)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "already released") {
		t.Fatalf("double Release: got %v, want the already-released panic", err)
	}
}

// TestGrains pins the store's capacity steps: every length has a grain
// at or below it and the next grain above it, lengths below two size
// classes' worth of grains are their own grain, and rounding a length up
// to its grain adds less than 1/grainsPerClass of it.
func TestGrains(t *testing.T) {
	for n := 1; n < 1<<14; n++ {
		g := grainOf(n)
		if s := grainSize(g); s > n || grainSize(g+1) <= n {
			t.Fatalf("grainOf(%d) = %d: grain %d..%d does not hold it", n, g, s, grainSize(g+1))
		}
		if grainOf(grainSize(g)) != g {
			t.Fatalf("grainOf(grainSize(%d)) = %d", g, grainOf(grainSize(g)))
		}
		c := grainCap(n)
		if n < 2*grainsPerClass && c != n || c < n || (c-n)*grainsPerClass >= n {
			t.Fatalf("grainCap(%d) = %d", n, c)
		}
	}
}

// TestFanOutRoundAllocatesNothing is the one-way flow the world's store
// exists for: rank 0 sends one slice to k ranks each round and they
// release it, so rank 0's own list never refills. Once the receivers'
// lists are full, what they release goes to the store and feeds rank
// 0's next round, which then allocates nothing; with per-rank lists
// alone every round made k clones. Race builds run the rounds but count
// nothing: their sync.Pool drops a share of the recycled message structs.
func TestFanOutRoundAllocatesNothing(t *testing.T) {
	const k, rounds = 4, 20
	const warm = maxFreePerClass + 1 // the receivers' lists fill, then one round feeds the store
	slice := make([]float64, 2*arenaMax)
	var allocs float64
	run(t, k+1, func(c *Comm) error {
		if c.Rank() != 0 {
			for i := 0; i < warm+rounds+1; i++ { // AllocsPerRun runs its function rounds+1 times
				d, _, _ := c.Recv(0, 0)
				c.Release(d)
				c.Send(0, 1, nil)
			}
			return nil
		}
		round := func() {
			for r := 1; r <= k; r++ {
				c.Send(r, 0, slice)
			}
			for r := 1; r <= k; r++ {
				c.Recv(r, 1)
			}
		}
		for i := 0; i < warm; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(rounds, round)
		return nil
	})
	if allocs != 0 && !poisonReleased {
		t.Errorf("a fan-out round allocates %v times, want 0", allocs)
	}
}

// TestStoreStaysWithinItsBound: a rank that releases many buffers it
// made itself fills its own list, then the world's store up to
// maxFreePerClass buffers per rank of the world, and no further.
func TestStoreStaysWithinItsBound(t *testing.T) {
	const ranks = 2
	run(t, ranks, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		s := c.proc.arena.store
		k := sizeClass(300)
		held := func() int {
			if k < len(s.held) {
				return s.held[k]
			}
			return 0
		}
		for i := 0; i < 10*maxFreePerClass*ranks; i++ {
			c.Release(make([]float64, 300))
			if held() > s.bound {
				return fmt.Errorf("after %d releases the store holds %d buffers of class %d, bound %d", i+1, held(), k, s.bound)
			}
		}
		if s.bound != maxFreePerClass*ranks || held() != s.bound || len(s.free[grainOf(300)]) != s.bound {
			return fmt.Errorf("store holds %d (%d filed) of bound %d, want it full", held(), len(s.free[grainOf(300)]), s.bound)
		}
		return nil
	})
}

// TestDoubleReleaseIntoTheStorePanicsUnderRace extends the
// use-after-release oracle to the world's store: a buffer whose first
// Release went to the rank's list or to the store reads NaN, and a
// second Release, which finds the rank's class full and so would go to
// the store, panics. Other builds skip.
func TestDoubleReleaseIntoTheStorePanicsUnderRace(t *testing.T) {
	if !poisonReleased {
		t.Skip("the poison is armed by the race build tag")
	}
	for _, fillers := range []int{maxFreePerClass - 1, maxFreePerClass} {
		_, err := Run(2, testCfg(), func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{1, 2, 3})
				return nil
			}
			d, _, _ := c.Recv(0, 0)
			for i := 0; i < fillers; i++ {
				c.Release(make([]float64, cap(d)))
			}
			c.Release(d)
			for i, v := range d {
				if !math.IsNaN(v) {
					return fmt.Errorf("d[%d] = %v after Release, want NaN", i, v)
				}
			}
			c.Release(d)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "already released") {
			t.Errorf("%d fillers: double Release: got %v, want the already-released panic", fillers, err)
		}
	}
}

// TestReplayedBcastClonesFromTheStore: the collective-replay leader
// clones a Bcast's payload into every non-root rank's arena while those
// ranks are parked, and with their own lists empty the clones come from
// the world's store — here the buffers rank 0 released past its own
// list. Under the race detector this runs the store from the leader's
// goroutine.
func TestReplayedBcastClonesFromTheStore(t *testing.T) {
	const p, n = 4, 2 * arenaMax
	var stored [][]float64
	run(t, p, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < maxFreePerClass+p-1; i++ {
				b := make([]float64, n)
				if i >= maxFreePerClass {
					stored = append(stored, b)
				}
				c.Release(b)
			}
		}
		c.Barrier()
		d := c.Bcast(0, make([]float64, n))
		if c.Rank() == 0 {
			return nil
		}
		for _, b := range stored {
			if sameArray(b, d) {
				return nil
			}
		}
		return fmt.Errorf("rank %d: the Bcast payload is not one of the stored buffers", c.Rank())
	})
}
