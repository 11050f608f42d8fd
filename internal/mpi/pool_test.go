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
	var a f64Arena
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
