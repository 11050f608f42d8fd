package mpi

import (
	"fmt"
	"testing"
)

func TestRangeCommBasics(t *testing.T) {
	run(t, 8, func(c *Comm) error {
		// Two contiguous groups: [0,3) and [3,8).
		var sub *Comm
		if c.Rank() < 3 {
			sub = c.RangeComm(0, 0, 3)
		} else {
			sub = c.RangeComm(1, 3, 5)
		}
		wantSize, wantRank := 3, c.Rank()
		if c.Rank() >= 3 {
			wantSize, wantRank = 5, c.Rank()-3
		}
		if sub.Size() != wantSize || sub.Rank() != wantRank {
			return fmt.Errorf("rank %d: sub size/rank = %d/%d", c.Rank(), sub.Size(), sub.Rank())
		}
		// Collectives stay inside the group.
		sum := sub.AllreduceScalar(1, Sum)
		if int(sum) != wantSize {
			return fmt.Errorf("rank %d: group allreduce = %v", c.Rank(), sum)
		}
		return nil
	})
}

func TestRangeCommIsolatesTraffic(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		var sub *Comm
		if c.Rank() < 2 {
			sub = c.RangeComm(0, 0, 2)
		} else {
			sub = c.RangeComm(1, 2, 2)
		}
		// Same (src=0, tag=0) in both groups must not cross.
		if sub.Rank() == 0 {
			sub.Send(1, 0, []float64{float64(c.Rank())})
		} else {
			d, _, _ := sub.Recv(0, 0)
			want := float64(c.Rank() - 1)
			if d[0] != want {
				return fmt.Errorf("rank %d: cross-group leak: got %v want %v", c.Rank(), d[0], want)
			}
		}
		return nil
	})
}

// TestSplitByParity cuts 9 ranks into the two group sizes a parity split
// gives (5 and 4), now as contiguous ranges, and checks that a collective
// on each group reduces over exactly its members.
func TestSplitByParity(t *testing.T) {
	run(t, 9, func(c *Comm) error {
		base, size := 0, 5
		if c.Rank() >= 5 {
			base, size = 5, 4
		}
		sub := c.RangeComm(base/5, base, size)
		if sub.Size() != size || sub.Rank() != c.Rank()-base {
			return fmt.Errorf("rank %d: sub size/rank = %d/%d, want %d/%d",
				c.Rank(), sub.Size(), sub.Rank(), size, c.Rank()-base)
		}
		want := 0
		for r := base; r < base+size; r++ {
			want += r
		}
		if got := sub.AllreduceScalar(float64(c.Rank()), Sum); int(got) != want {
			return fmt.Errorf("rank %d: sum of member world ranks = %v, want %d", c.Rank(), got, want)
		}
		return nil
	})
}

// TestSplitIsolatesContexts: messages on a sub-communicator must not be
// visible to the parent, even on the same (src, tag).
func TestSplitIsolatesContexts(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		if c.Rank() >= 2 {
			return nil
		}
		sub := c.RangeComm(0, 0, 2)
		if c.Rank() == 0 {
			sub.Send(1, 0, []float64{2})
			c.Send(1, 0, []float64{1})
		} else {
			d1, _, _ := c.Recv(0, 0)
			d2, _, _ := sub.Recv(0, 0)
			if d1[0] != 1 || d2[0] != 2 {
				return fmt.Errorf("parent and sub traffic mixed: %v %v", d1, d2)
			}
		}
		return nil
	})
}

// TestDupSeparatesTraffic: a RangeComm spanning the world has the world's
// group but a context of its own, so the same (src, tag) on it and on the
// world communicator must not cross.
func TestDupSeparatesTraffic(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		dup := c.RangeComm(0, 0, 2)
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			dup.Send(1, 0, []float64{2})
		} else {
			d2, _, _ := dup.Recv(0, 0)
			d1, _, _ := c.Recv(0, 0)
			if d1[0] != 1 || d2[0] != 2 {
				return fmt.Errorf("dup traffic mixed: %v %v", d1, d2)
			}
		}
		return nil
	})
}

func TestRangeCommRejectsOutsiders(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) error {
		if c.Rank() == 1 {
			c.RangeComm(0, 0, 1) // not a member
		}
		return nil
	})
	if err == nil {
		t.Fatal("outsider RangeComm accepted")
	}
}

func TestRecvAllOrderIndependence(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		if c.Rank() == 0 {
			data, srcs := c.RecvAll(3, 5)
			for i := 1; i < len(srcs); i++ {
				if srcs[i] <= srcs[i-1] {
					return fmt.Errorf("sources not sorted: %v", srcs)
				}
			}
			for i, d := range data {
				if d[0] != float64(srcs[i]) {
					return fmt.Errorf("payload misaligned: %v from %d", d, srcs[i])
				}
			}
		} else {
			c.ComputeSeconds(float64(c.Rank()) * 0.001)
			c.Send(0, 5, []float64{float64(c.Rank())})
		}
		return nil
	})
}

func TestRecvAllClockIsMaxArrival(t *testing.T) {
	st := run(t, 3, func(c *Comm) error {
		if c.Rank() == 0 {
			c.RecvAll(2, 1)
			if c.Clock() < 0.02 {
				return fmt.Errorf("clock %v below slowest sender", c.Clock())
			}
		} else {
			c.ComputeSeconds(0.01 * float64(c.Rank()))
			c.Send(0, 1, []float64{1})
		}
		return nil
	})
	if st.Elapsed < 0.02 {
		t.Errorf("elapsed %v below slowest sender's send time", st.Elapsed)
	}
}

func TestSendVirtualCostsVirtualBytes(t *testing.T) {
	elapsed := func(vbytes int) float64 {
		st := run(t, 2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendVirtual(1, 0, []float64{1}, vbytes)
			} else {
				c.Recv(0, 0)
			}
			return nil
		})
		return st.Elapsed
	}
	if !(elapsed(10_000_000) > elapsed(8)) {
		t.Error("virtual byte size did not change the cost")
	}
}

func TestStretchSince(t *testing.T) {
	st := run(t, 2, func(c *Comm) error {
		comp, comm := c.ComputeTime(), c.CommTime()
		c.ComputeSeconds(0.01)
		other := 1 - c.Rank()
		c.Send(other, 0, []float64{1})
		c.Recv(other, 0)
		c.StretchSince(comp, comm, 10)
		// Compute must now be ~0.1s (10x the 0.01 measured).
		if c.ComputeTime() < 0.099 {
			return fmt.Errorf("stretched compute %v, want ~0.1", c.ComputeTime())
		}
		if c.CommTime() <= 0 {
			return fmt.Errorf("comm not stretched")
		}
		return nil
	})
	if st.Elapsed < 0.1 {
		t.Errorf("elapsed %v below stretched compute", st.Elapsed)
	}
}

func TestStretchSinceRejectsBadFactor(t *testing.T) {
	_, err := Run(1, testCfg(), func(c *Comm) error {
		c.StretchSince(0, 0, 0.5)
		return nil
	})
	if err == nil {
		t.Fatal("factor < 1 accepted")
	}
}
