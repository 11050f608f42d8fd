package mpi

import (
	"fmt"
	"math"
	"testing"
)

// sizes exercises power-of-two and awkward communicator sizes.
var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 33}

func TestBarrierCompletes(t *testing.T) {
	for _, p := range sizes {
		run(t, p, func(c *Comm) error {
			c.Barrier()
			c.Barrier()
			return nil
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range sizes {
		for root := 0; root < p; root += max(1, p/3) {
			rt := root
			run(t, p, func(c *Comm) error {
				var in []float64
				if c.Rank() == rt {
					in = []float64{3.14, float64(rt)}
				}
				out := c.Bcast(rt, in)
				if len(out) != 2 || out[0] != 3.14 || out[1] != float64(rt) {
					return fmt.Errorf("p=%d root=%d rank=%d got %v", p, rt, c.Rank(), out)
				}
				return nil
			})
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	for _, p := range sizes {
		pp := p
		run(t, p, func(c *Comm) error {
			x := float64(c.Rank())
			if got := c.AllreduceScalar(x, Sum); got != float64(pp*(pp-1))/2 {
				return fmt.Errorf("sum got %v", got)
			}
			if got := c.AllreduceScalar(x, Max); got != float64(pp-1) {
				return fmt.Errorf("max got %v", got)
			}
			if got := c.AllreduceScalar(x, Min); got != 0 {
				return fmt.Errorf("min got %v", got)
			}
			if got := c.AllreduceInt(2, Sum); got != 2*pp {
				return fmt.Errorf("int sum got %v", got)
			}
			return nil
		})
	}
}

func TestAllreduceVector(t *testing.T) {
	run(t, 6, func(c *Comm) error {
		v := []float64{float64(c.Rank()), -float64(c.Rank()), 1}
		got := c.Allreduce(v, Sum)
		if got[0] != 15 || got[1] != -15 || got[2] != 6 {
			return fmt.Errorf("vector allreduce got %v", got)
		}
		// Input must be untouched.
		if v[2] != 1 {
			return fmt.Errorf("allreduce mutated input")
		}
		return nil
	})
}

// TestGatherVariableLengths: Allgather's blocks may differ in length per
// rank, including an empty one.
func TestGatherVariableLengths(t *testing.T) {
	run(t, 5, func(c *Comm) error {
		mine := make([]float64, c.Rank())
		for i := range mine {
			mine[i] = float64(c.Rank())
		}
		all := c.Allgather(mine)
		for r, d := range all {
			if len(d) != r || (len(d) > 0 && d[len(d)-1] != float64(r)) {
				return fmt.Errorf("rank %d: allgather slot %d = %v", c.Rank(), r, d)
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		run(t, p, func(c *Comm) error {
			all := c.Allgather([]float64{float64(c.Rank() * c.Rank())})
			for r, d := range all {
				if len(d) != 1 || d[0] != float64(r*r) {
					return fmt.Errorf("allgather slot %d = %v", r, d)
				}
			}
			return nil
		})
	}
}

func TestAlltoallv(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		send := make([][]float64, 4)
		for i := range send {
			send[i] = []float64{float64(c.Rank()*100 + i)}
		}
		recv := c.Alltoallv(send)
		for r, d := range recv {
			want := float64(r*100 + c.Rank())
			if d[0] != want {
				return fmt.Errorf("alltoallv from %d = %v, want %v", r, d, want)
			}
		}
		return nil
	})
}

func TestCollectiveVirtualCostGrowsWithRanks(t *testing.T) {
	cost := func(p int) float64 {
		st := run(t, p, func(c *Comm) error {
			c.Allreduce(make([]float64, 1024), Sum)
			return nil
		})
		return st.Elapsed
	}
	if !(cost(64) > cost(4)) {
		t.Error("allreduce on 64 ranks should cost more virtual time than on 4")
	}
}

func TestHaloExchange(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		p := c.Size()
		nbs := []int{(c.Rank() + 1) % p, (c.Rank() - 1 + p) % p}
		bufs := [][]float64{{float64(c.Rank())}, {float64(c.Rank())}}
		got := make([][]float64, len(nbs))
		c.HaloExchange(2, nbs, bufs, got)
		if got[0][0] != float64(nbs[0]) || got[1][0] != float64(nbs[1]) {
			return fmt.Errorf("halo exchange got %v", got)
		}
		return nil
	})
}

func TestHaloExchangeMismatchPanics(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) error {
		c.HaloExchange(0, []int{0}, nil, nil)
		return nil
	})
	if err == nil {
		t.Fatal("mismatched halo exchange did not fail")
	}
}

func TestReduceMaxMinVector(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		got := c.Allreduce([]float64{float64(c.Rank()), float64(-c.Rank())}, Max)
		if got[0] != 3 || got[1] != 0 {
			return fmt.Errorf("vector max = %v", got)
		}
		got = c.Allreduce([]float64{float64(c.Rank())}, Min)
		if got[0] != 0 {
			return fmt.Errorf("vector min = %v", got)
		}
		return nil
	})
}

func TestBcastPreservesValuesAcrossVirtualTimeSkew(t *testing.T) {
	// Ranks start with very different clocks; bcast must still deliver and
	// leave every clock at least at the root's send time.
	run(t, 6, func(c *Comm) error {
		c.ComputeSeconds(float64(c.Rank()) * 0.1)
		out := c.Bcast(5, []float64{9})
		if out[0] != 9 {
			return fmt.Errorf("bcast value lost")
		}
		if c.Clock() < 0.5-1e-9 {
			return fmt.Errorf("clock %v below root's send time", c.Clock())
		}
		return nil
	})
}

func TestAllreduceAssociativityProperty(t *testing.T) {
	// Sum over ranks must equal the analytic total regardless of p.
	for p := 1; p <= 17; p += 4 {
		pp := p
		run(t, p, func(c *Comm) error {
			x := math.Sqrt(float64(c.Rank() + 1))
			got := c.AllreduceScalar(x, Sum)
			want := 0.0
			for i := 1; i <= pp; i++ {
				want += math.Sqrt(float64(i))
			}
			if math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("p=%d sum=%v want %v", pp, got, want)
			}
			return nil
		})
	}
}
