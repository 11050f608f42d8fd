package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"cpx/internal/cluster"
)

// waitForGoroutines polls until the process goroutine count drops back
// to at most base, proving every rank goroutine (and the cancel
// watcher) unwound. Polling is needed because wg.Wait in Run returns
// before the runtime reaps the exited goroutines' records.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelUnblocksDeadlockedRanks cancels a world where every rank but
// rank 0 is blocked in Recv on a message that will never arrive. Rank 0
// is busy on the host until the abort, so the run is slow, not stuck:
// only the cancellation ends it. The abort fan-out must wake every
// blocked rank, Run must return ErrCanceled, and no rank goroutine may
// leak.
func TestCancelUnblocksDeadlockedRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	cancel := make(chan struct{})
	started := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		cfg := Config{Machine: cluster.SmallCluster(), Cancel: cancel}
		_, err := Run(8, cfg, func(c *Comm) error {
			started <- struct{}{}
			for c.Rank() == 0 && !c.world.aborted() {
				time.Sleep(time.Millisecond)
			}
			c.Recv((c.Rank()+1)%c.Size(), 99) // nobody sends: blocks until aborted
			return nil
		})
		done <- err
	}()
	for i := 0; i < 8; i++ {
		<-started
	}
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run returned %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	waitForGoroutines(t, base)
}

// TestCancelMidExchange cancels a long-running ring exchange partway
// through and checks the partial Stats still describe the aborted run.
func TestCancelMidExchange(t *testing.T) {
	base := runtime.NumGoroutine()
	cancel := make(chan struct{})
	rank0Reached := make(chan struct{})
	go func() {
		<-rank0Reached
		close(cancel)
	}()
	cfg := Config{Machine: cluster.SmallCluster(), Cancel: cancel}
	stats, err := Run(4, cfg, func(c *Comm) error {
		for iter := 0; iter < 1_000_000; iter++ {
			c.ComputeSeconds(1e-6)
			c.Send((c.Rank()+1)%c.Size(), iter, []float64{float64(iter)})
			c.Recv((c.Rank()+3)%c.Size(), iter)
			if c.Rank() == 0 && iter == 100 {
				close(rank0Reached) // the exchange is mid-flight: cancel now
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if stats == nil {
		t.Fatal("aborted run returned no partial stats")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	waitForGoroutines(t, base)
}

// TestCancelAlreadyClosed: a Cancel channel closed before Run starts must
// cancel every time, even when the ranks never block and would finish
// before a watcher goroutine could be scheduled.
func TestCancelAlreadyClosed(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	cfg := Config{Machine: cluster.SmallCluster(), Cancel: cancel}
	for i := 0; i < 1000; i++ {
		_, err := Run(2, cfg, func(c *Comm) error {
			c.ComputeSeconds(1e-6)
			return nil
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("run %d: err = %v, want ErrCanceled", i, err)
		}
	}
}

// TestCancelNeverFiredIsFree: a Run given a Cancel channel that stays
// open must complete normally and reap its watcher goroutine.
func TestCancelNeverFiredIsFree(t *testing.T) {
	base := runtime.NumGoroutine()
	cancel := make(chan struct{})
	defer close(cancel)
	cfg := Config{Machine: cluster.SmallCluster(), Cancel: cancel}
	stats, err := Run(4, cfg, func(c *Comm) error {
		c.ComputeSeconds(1e-3)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	waitForGoroutines(t, base+1) // the deferred close has not run yet; only the watcher may remain
}
