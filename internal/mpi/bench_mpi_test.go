package mpi

import (
	"fmt"
	"testing"
	"time"

	"cpx/internal/cluster"
)

// Host-side microbenchmarks for the runtime fast paths, recorded in
// BENCH_mpi.json. BenchmarkRunP2P measures the pooled-message/indexed-
// mailbox point-to-point path; BenchmarkRunCollectives measures
// collective-heavy runs.
// `make bench-mpi` re-measures; `make check` runs each once so a
// regression that breaks them fails CI loudly.

const benchIters = 10

func benchMPIConfig() Config {
	return Config{Machine: cluster.SmallCluster(), Watchdog: 5 * time.Minute}
}

func benchP2P(c *Comm) error {
	buf := make([]float64, 64)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	for i := 0; i < benchIters; i++ {
		c.ComputeSeconds(1e-6 * float64(c.Rank()%5+1))
		c.Send(next, 0, buf)
		c.Recv(prev, 0)
	}
	return nil
}

func benchCollectives(c *Comm) error {
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < benchIters; i++ {
		c.ComputeSeconds(1e-6 * float64(c.Rank()%5+1))
		c.Allreduce(buf, Sum)
		c.Bcast(i%c.Size(), buf)
		c.Barrier()
	}
	return nil
}

func BenchmarkRunP2P(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, benchMPIConfig(), benchP2P); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRunCollectives(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, benchMPIConfig(), benchCollectives); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
