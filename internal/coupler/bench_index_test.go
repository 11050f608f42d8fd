package coupler

import "testing"

// The donor-index benchmarks run at ProductionScale's 1024 points a side,
// the size every large harness run searches.

var benchSink int

func BenchmarkBuildKDTree(b *testing.B) {
	pts := AnnulusPoints(ProductionScale().MaxPointsPerSide, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(BuildKDTree(pts).pts)
	}
}

func BenchmarkKNearest(b *testing.B) {
	tree := BuildKDTree(AnnulusPoints(ProductionScale().MaxPointsPerSide, 1))
	queries := AnnulusPoints(1000, 2)
	var buf [DonorsPerTarget]neighbour
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(tree.nearestInto(queries[i%len(queries)], buf[:]))
	}
}

// BenchmarkUnitExchange is one sliding-plane coupling unit on 64 CU ranks
// for 20 density steps: the per-exchange host cost of a wide unit, which
// the shared donor index keeps independent of the CU rank count.
func BenchmarkUnitExchange(b *testing.B) {
	sim := wideUnitSim(TreePrefetch)
	sim.DensitySteps = 20
	sim.Scale = ProductionScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(runCfg()); err != nil {
			b.Fatal(err)
		}
	}
}
