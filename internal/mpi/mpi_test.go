package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"cpx/internal/cluster"
)

func testCfg() Config {
	return Config{Machine: cluster.SmallCluster(), Watchdog: 30 * time.Second}
}

func run(t *testing.T, p int, fn func(*Comm) error) *Stats {
	t.Helper()
	st, err := Run(p, testCfg(), fn)
	if err != nil {
		t.Fatalf("Run(%d ranks): %v", p, err)
	}
	return st
}

func TestRunRejectsBadSize(t *testing.T) {
	if _, err := Run(0, testCfg(), func(*Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) did not error")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			data, src, tag := c.Recv(0, 7)
			if src != 0 || tag != 7 {
				return fmt.Errorf("src/tag = %d/%d, want 0/7", src, tag)
			}
			if len(data) != 3 || data[2] != 3 {
				return fmt.Errorf("payload = %v", data)
			}
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // mutate after send; receiver must not see it
		} else {
			data, _, _ := c.Recv(0, 0)
			if data[0] != 42 {
				return fmt.Errorf("received %v, want 42 (payload aliased?)", data[0])
			}
		}
		return nil
	})
}

func TestTagAndSourceMatching(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(2, 5, []float64{5})
		case 1:
			c.Send(2, 9, []float64{9})
		case 2:
			// Receive tag 9 first even though tag 5 may arrive first.
			d9, _, _ := c.Recv(1, 9)
			d5, _, _ := c.Recv(0, 5)
			if d9[0] != 9 || d5[0] != 5 {
				return fmt.Errorf("matching wrong: %v %v", d9, d5)
			}
		}
		return nil
	})
}

// TestAnySourceRecv: a wildcard-source receive matches on the tag alone
// and reports the sender; a message with another tag waits its turn, even
// when it was queued first.
func TestAnySourceRecv(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			c.Send(0, 3, []float64{1})
			c.Send(2, 5, nil) // rank 2 sends only once tag 3 is queued
		case 2:
			c.Recv(1, 5)
			c.Send(0, 4, []float64{2})
		case 0:
			for _, want := range []struct{ src, tag int }{{2, 4}, {1, 3}} {
				d, src, tag := c.Recv(AnySource, want.tag)
				if src != want.src || tag != want.tag || d[0] != float64(want.src) {
					return fmt.Errorf("Recv(AnySource, %d) got %v src %d tag %d", want.tag, d, src, tag)
				}
			}
		}
		return nil
	})
}

func TestNonOvertakingFIFO(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		const n = 20
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				d, _, _ := c.Recv(0, 0)
				if d[0] != float64(i) {
					return fmt.Errorf("message %d arrived out of order: %v", i, d[0])
				}
			}
		}
		return nil
	})
}

func TestVirtualClockAdvancesOnCompute(t *testing.T) {
	st := run(t, 1, func(c *Comm) error {
		c.ComputeSeconds(2.5)
		if math.Abs(c.Clock()-2.5) > 1e-12 {
			return fmt.Errorf("clock = %v, want 2.5", c.Clock())
		}
		return nil
	})
	if math.Abs(st.Elapsed-2.5) > 1e-12 {
		t.Errorf("Elapsed = %v, want 2.5", st.Elapsed)
	}
	if math.Abs(st.Compute[0]-2.5) > 1e-12 {
		t.Errorf("Compute[0] = %v, want 2.5", st.Compute[0])
	}
}

func TestRecvWaitsForSenderVirtualTime(t *testing.T) {
	// Rank 0 computes 1s then sends; rank 1 receives immediately.
	// Rank 1's clock must end past 1s: causality via the message stamp.
	st := run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.ComputeSeconds(1.0)
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0)
			if c.Clock() < 1.0 {
				return fmt.Errorf("receiver clock %v < sender send time 1.0", c.Clock())
			}
		}
		return nil
	})
	if st.Comm[1] < 1.0 {
		t.Errorf("receiver wait time %v should include the 1s block", st.Comm[1])
	}
}

func TestComputeChargesWorkViaMachine(t *testing.T) {
	m := cluster.SmallCluster()
	st, err := Run(1, Config{Machine: m, Watchdog: 10 * time.Second}, func(c *Comm) error {
		c.Compute(cluster.Work{Flops: m.FlopRate}) // exactly one second flop-bound
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Elapsed-1.0) > 1e-9 {
		t.Errorf("Elapsed = %v, want 1.0", st.Elapsed)
	}
}

func TestNegativeComputePanicsIntoError(t *testing.T) {
	_, err := Run(1, testCfg(), func(c *Comm) error {
		c.ComputeSeconds(-1)
		return nil
	})
	if err == nil {
		t.Fatal("negative compute did not fail the run")
	}
}

func TestRankErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Run(4, testCfg(), func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks block forever; the abort must wake them.
		c.Recv(3, 99)
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestRankPanicPropagates(t *testing.T) {
	_, err := Run(2, testCfg(), func(c *Comm) error {
		if c.Rank() == 1 {
			panic("solver blew up")
		}
		c.Recv(1, 0)
		return nil
	})
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
}

func TestSendRecvCombined(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		c.Send(other, 0, []float64{float64(c.Rank())})
		got, _, _ := c.Recv(other, 0)
		if got[0] != float64(other) {
			return fmt.Errorf("exchange got %v, want %d", got, other)
		}
		return nil
	})
}

func TestStatsAccounting(t *testing.T) {
	st := run(t, 2, func(c *Comm) error {
		c.ComputeSeconds(1)
		other := 1 - c.Rank()
		c.Send(other, 0, []float64{0})
		c.Recv(other, 0)
		return nil
	})
	if st.Ranks != 2 || len(st.Clocks) != 2 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.AvgCompute() <= 0 || st.AvgComm() <= 0 {
		t.Errorf("compute/comm should both be positive: %v %v", st.AvgCompute(), st.AvgComm())
	}
	if cf := st.CommFraction(); cf <= 0 || cf >= 1 {
		t.Errorf("comm fraction %v out of (0,1)", cf)
	}
}

func TestProfileCapturesRegions(t *testing.T) {
	st, err := Run(2, Config{Machine: cluster.SmallCluster(), Profile: true, Watchdog: 10 * time.Second},
		func(c *Comm) error {
			c.Profile().Push("flux")
			c.ComputeSeconds(1)
			other := 1 - c.Rank()
			c.Send(other, 0, []float64{0})
			c.Recv(other, 0)
			c.Profile().Pop()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	merged := st.MergedProfile()
	if merged == nil {
		t.Fatal("no merged profile")
	}
	e := merged.Entry("flux")
	if e.Compute < 2.0-1e-9 {
		t.Errorf("flux compute = %v, want >= 2 (1s on each rank)", e.Compute)
	}
	if e.Comm <= 0 {
		t.Errorf("flux comm = %v, want > 0", e.Comm)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() float64 {
		st, err := Run(8, testCfg(), func(c *Comm) error {
			for iter := 0; iter < 5; iter++ {
				c.ComputeSeconds(0.001 * float64(c.Rank()+1))
				c.Allreduce([]float64{float64(c.Rank())}, Sum)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("virtual time not deterministic: %v vs %v", a, b)
	}
}

func TestLargerMessagesTakeLonger(t *testing.T) {
	elapsed := func(n int) float64 {
		st := run(t, 2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 0, make([]float64, n))
			} else {
				c.Recv(0, 0)
			}
			return nil
		})
		return st.Elapsed
	}
	if !(elapsed(100000) > elapsed(10)) {
		t.Error("large message should cost more virtual time than small one")
	}
}

func TestManyRanksScale(t *testing.T) {
	// Smoke test that a few thousand goroutine-ranks work.
	st := run(t, 2048, func(c *Comm) error {
		v := c.AllreduceScalar(1, Sum)
		if v != 2048 {
			return fmt.Errorf("allreduce sum = %v", v)
		}
		return nil
	})
	if st.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}
