package mpi

import (
	"fmt"
	"testing"

	"cpx/internal/telemetry"
)

// BenchmarkRunMetrics measures the host-side cost of the virtual-time
// metrics sampler on a mixed p2p + collective workload, metrics off and
// on, recorded in BENCH_telemetry.json. The acceptance bar is <= 10%
// overhead at 512 ranks. The name matches `make bench-smoke`'s
// 'BenchmarkRun' filter so a regression fails `make check` loudly.

func benchTelemetry(c *Comm) error {
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	for i := 0; i < benchIters; i++ {
		c.ComputeSeconds(1e-6 * float64(c.Rank()%5+1))
		c.Send(next, 0, buf)
		c.Recv(prev, 0)
		c.Allreduce(buf, Sum)
		c.Barrier()
	}
	return nil
}

func BenchmarkRunMetrics(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		for _, metrics := range []bool{false, true} {
			b.Run(fmt.Sprintf("ranks=%d/metrics=%v", p, metrics), func(b *testing.B) {
				cfg := benchMPIConfig()
				if metrics {
					// ~10-20 samples over the run's virtual duration —
					// the granularity the serving layer actually uses.
					cfg.Metrics = &telemetry.Config{Interval: 1e-4}
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(p, cfg, benchTelemetry); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
