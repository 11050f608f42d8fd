package mpi

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cpx/internal/fault"
)

// stuckWithin runs fn on p ranks, which must deadlock, and returns the
// stuck verdict's error text; the verdict must come in under a second.
func stuckWithin(t *testing.T, p int, cfg Config, fn func(*Comm) error) string {
	t.Helper()
	start := time.Now()
	_, err := Run(p, cfg, fn)
	if took := time.Since(start); took >= time.Second {
		t.Errorf("stuck verdict took %v, want under 1s", took)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "mpi: stuck: ") {
		t.Fatalf("err = %v, want the stuck verdict", err)
	}
	return err.Error()
}

// TestStuckVerdict is the oracle of the stuck verdict: each deadlock
// shape fails at once, with no host-time bound set, and with the same
// error text at any host parallelism, because what every rank is blocked
// on is fixed by program order once none can move.
func TestStuckVerdict(t *testing.T) {
	crash := faultCfg(&fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 0.5}}})
	cases := []struct {
		name string
		p    int
		cfg  Config
		fn   func(*Comm) error
		want string // after "mpi: stuck: "
	}{
		{"head-to-head receive cycle", 3, testCfg(), func(c *Comm) error {
			c.Recv((c.Rank()+1)%c.Size(), 1)
			return nil
		}, "all 3 live rank(s) of 3 are blocked: 3 rank(s) blocked in receives (0←1/1, 1←2/1, 2←0/1), 0 parked in collectives"},

		{"a rank returns while a peer waits on it", 2, testCfg(), func(c *Comm) error {
			if c.Rank() == 1 {
				c.Recv(0, 7)
			}
			c.ComputeSeconds(1)
			return nil
		}, "all 1 live rank(s) of 2 are blocked: 1 rank(s) blocked in receives (1←0/7), 0 parked in collectives"},

		{"a barrier one rank skips", 4, testCfg(), func(c *Comm) error {
			if c.Rank() != 3 {
				c.Barrier()
			}
			return nil
		}, "all 3 live rank(s) of 4 are blocked: 0 rank(s) blocked in receives, 3 parked in collectives (3 of 4 in Barrier)"},

		{"a tag mismatch", 2, testCfg(), func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 1, []float64{1})
			} else {
				c.Recv(0, 2)
			}
			c.Barrier()
			return nil
		}, "all 2 live rank(s) of 2 are blocked: 1 rank(s) blocked in receives (1←0/2), 1 parked in collectives (1 of 2 in Barrier)"},

		{"an AnySource receive with no sender", 3, testCfg(), func(c *Comm) error {
			if c.Rank() == 0 {
				c.Recv(AnySource, 3)
			}
			return nil
		}, "all 1 live rank(s) of 3 are blocked: 1 rank(s) blocked in receives (0←any/3), 0 parked in collectives"},

		{"a stuck collective on a RangeComm subset", 4, testCfg(), func(c *Comm) error {
			if r := c.Rank(); r == 1 || r == 2 {
				c.RangeComm(0, 1, 3).Allreduce([]float64{1}, Sum) // rank 3 never joins
			} else {
				c.Barrier()
			}
			return nil
		}, "all 4 live rank(s) of 4 are blocked: 0 rank(s) blocked in receives, 4 parked in collectives (2 of 3 in Allreduce, 2 of 4 in Barrier)"},

		{"survivors wait on each other after a crash", 3, crash, func(c *Comm) error {
			c.ComputeSeconds(1) // rank 0 dies at 0.5
			if r := c.Rank(); r != 0 {
				c.Recv(3-r, 0)
			}
			return nil
		}, "all 2 live rank(s) of 3 are blocked: 2 rank(s) blocked in receives (1←2/0, 2←1/0), 0 parked in collectives"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 5; rep++ {
					if got := stuckWithin(t, tc.p, tc.cfg, tc.fn); got != "mpi: stuck: "+tc.want {
						t.Fatalf("GOMAXPROCS %d: err = %s\nwant       mpi: stuck: %s", procs, got, tc.want)
					}
				}
			}
		})
	}
}
