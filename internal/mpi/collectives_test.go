package mpi

import (
	"fmt"
	"math"
	"testing"

	"cpx/internal/cluster"
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

// TestAllreduceMatchesClosedForm holds Allreduce's virtual time on
// SmallCluster, every clock starting at 0, to the Hockney closed form of
// recursive doubling with the non-power-of-two fold. A step, one message
// of b bytes on a link of latency α and bandwidth β, costs
// step = o_send + α + b/β + o_recv. The fold (high ranks onto low) and
// the unfold (back) are one step each, and round k = 1, 2, 4, ... pairs
// r with r^k: on-node while k < 16, the cores per node. Off node, β is
// the per-rank link rate, as the node's NIC share (1.25 GB/s) does not
// bind on this machine.
func TestAllreduceMatchesClosedForm(t *testing.T) {
	m := cluster.SmallCluster()
	oS, oR := m.SendOverhead, m.RecvOverhead
	onNode := func(b float64) float64 { return oS + m.IntraNodeLatency + b/m.IntraNodeBW + oR }
	offNode := func(b float64) float64 { return oS + m.InterNodeLatency + b/m.InterNodeBW + oR }
	for _, doubles := range []int{1, 1024} {
		b := 8 * float64(doubles)
		for _, tc := range []struct {
			p    int
			want float64
		}{
			// Two ranks on one node: one round.
			{2, onNode(b)},
			// Rank 2 folds onto rank 0, which then starts its round one
			// step ahead: rank 1's message has arrived by then, so the
			// round costs rank 0 only its overheads before it unfolds.
			{3, onNode(b) + oS + oR + onNode(b)},
			// Four rounds on node, two (k = 16, 32) across nodes.
			{64, 4*onNode(b) + 2*offNode(b)},
			// 488 ranks fold across nodes (512 is 32 whole nodes); the
			// nine rounds are four on node and five across; the unfold
			// crosses nodes. Two folded ranks differ in all nine bits
			// (100 and 411), so every round lies on the critical path.
			{1000, offNode(b) + 4*onNode(b) + 5*offNode(b) + offNode(b)},
		} {
			st := run(t, tc.p, func(c *Comm) error {
				c.Allreduce(make([]float64, doubles), Sum)
				return nil
			})
			if math.Abs(st.Elapsed-tc.want) > 1e-12*tc.want {
				t.Errorf("p=%d, %d doubles: elapsed %.17g s, closed form %.17g s", tc.p, doubles, st.Elapsed, tc.want)
			}
		}
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
