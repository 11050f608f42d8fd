package mpi

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cpx/internal/cluster"
)

type tableKey struct{ n int }

// TestSharedBuildsOncePerKeyPerWorld: 64 ranks asking at once for four
// keys — half of them through a sub-communicator, which resolves to the
// same world — run each key's build once and all hold the value it made;
// a second Run starts with an empty memo and builds again.
func TestSharedBuildsOncePerKeyPerWorld(t *testing.T) {
	var builds [4]atomic.Int32
	for round := int32(1); round <= 2; round++ {
		got := make([][]int, 64)
		run(t, 64, func(c *Comm) error {
			via := c
			if c.Rank() >= 32 {
				via = c.RangeComm(0, 32, 32)
			}
			k := c.Rank() % 4
			got[c.Rank()] = Shared(via, tableKey{k}, func() []int {
				builds[k].Add(1)
				return []int{k}
			})
			return nil
		})
		for r, tbl := range got {
			if len(tbl) != 1 || tbl[0] != r%4 || &tbl[0] != &got[r%4][0] {
				t.Fatalf("run %d: rank %d holds %v, want the one table built for key %d", round, r, tbl, r%4)
			}
		}
		for k := range builds {
			if n := builds[k].Load(); n != round {
				t.Errorf("key %d built %d times after %d runs, want once per run", k, n, round)
			}
		}
	}
}

// TestSharedKeysBuildConcurrently: each of two builds finishes only once
// the other has started, which a memo that serialised builds never allows.
func TestSharedKeysBuildConcurrently(t *testing.T) {
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	_, err := Run(2, testCfg(), func(c *Comm) error {
		me := c.Rank()
		Shared(c, tableKey{me}, func() int {
			close(started[me])
			// A serialised memo never starts the other build. Its waiter
			// is not parked in the runtime, so bound the wait here.
			select {
			case <-started[1-me]:
			case <-time.After(5 * time.Second):
				t.Error("the other key's build never started")
			}
			return me
		})
		return nil
	})
	if err != nil {
		t.Fatalf("two keys did not build side by side: %v", err)
	}
}

// TestSharedPanickingBuildFailsTheRun: the ranks waiting on a build that
// panics unwind with the run's error instead of waiting for ever.
func TestSharedPanickingBuildFailsTheRun(t *testing.T) {
	waiting := make(chan struct{})
	_, err := Run(8, testCfg(), func(c *Comm) error {
		if c.Rank() != 0 {
			<-waiting // rank 0 is the builder; the others find its entry
		}
		Shared(c, tableKey{0}, func() int {
			close(waiting)
			panic("no table today")
		})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "no table today") {
		t.Fatalf("Run returned %v, want the build's panic", err)
	}
}

// TestSharedChargesNothing: a traced run reports the same Stats — clocks,
// compute/comm split, profiles, timelines, comm matrix — whether or not
// its ranks call Shared between their charges.
func TestSharedChargesNothing(t *testing.T) {
	program := func(share bool) *Stats {
		cfg := Config{Machine: cluster.SmallCluster(), Trace: true}
		st, err := Run(8, cfg, func(c *Comm) error {
			c.Compute(cluster.Work{Flops: 1e6 * float64(c.Rank()+1), Bytes: 1e5})
			if share {
				Shared(c, tableKey{c.Rank() % 2}, func() []int { return make([]int, 1<<10) })
			}
			c.Send((c.Rank()+1)%c.Size(), 3, []float64{1, 2, 3})
			d, _, _ := c.Recv((c.Rank()+c.Size()-1)%c.Size(), 3)
			c.Release(d)
			if share {
				Shared(c, tableKey{2}, func() int { return 7 })
			}
			c.AllreduceScalar(float64(c.Rank()), Sum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if plain, shared := program(false), program(true); !reflect.DeepEqual(plain, shared) {
		t.Errorf("Stats differ with Shared calls in the rank program:\n%+v\n%+v", plain, shared)
	}
}
