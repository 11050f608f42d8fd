package coupler

import (
	"fmt"
	"math"
	"testing"
)

func TestMapperStrategiesAgreeOnDonors(t *testing.T) {
	donors := AnnulusPoints(400, 1)
	targets := AnnulusPoints(100, 2)
	brute := (&Mapper{Kind: BruteForce}).Map(targets, donors)
	tree := (&Mapper{Kind: Tree}).Map(targets, donors)
	for ti := range brute.Donors {
		// Same donor distance profile (indices can differ on ties).
		for i := range brute.Donors[ti] {
			db := sqDist(donors[brute.Donors[ti][i]], targets[ti])
			dt := sqDist(donors[tree.Donors[ti][i]], targets[ti])
			if math.Abs(db-dt) > 1e-12 {
				t.Fatalf("target %d donor %d: brute dist %v vs tree %v", ti, i, db, dt)
			}
		}
	}
}

func TestMappingValidates(t *testing.T) {
	donors := AnnulusPoints(200, 3)
	targets := AnnulusPoints(50, 4)
	for _, kind := range []Search{BruteForce, Tree, TreePrefetch} {
		m := (&Mapper{Kind: kind}).Map(targets, donors)
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestInterpolateConstantField(t *testing.T) {
	// IDW with weights summing to 1 must reproduce constants exactly.
	donors := AnnulusPoints(300, 5)
	targets := AnnulusPoints(80, 6)
	mp := (&Mapper{Kind: Tree}).Map(targets, donors)
	vals := make([]float64, len(donors))
	for i := range vals {
		vals[i] = 7.25
	}
	out := mp.Interpolate(vals)
	for ti, v := range out {
		if math.Abs(v-7.25) > 1e-9 {
			t.Fatalf("target %d: constant field interpolated to %v", ti, v)
		}
	}
}

func TestInterpolateSmoothField(t *testing.T) {
	// A linear field must interpolate with small error on a dense donor set.
	donors := AnnulusPoints(5000, 7)
	targets := AnnulusPoints(50, 8)
	mp := (&Mapper{Kind: Tree}).Map(targets, donors)
	vals := make([]float64, len(donors))
	for i, d := range donors {
		vals[i] = 2*d.X + 3*d.Y
	}
	out := mp.Interpolate(vals)
	for ti, v := range out {
		want := 2*targets[ti].X + 3*targets[ti].Y
		if math.Abs(v-want) > 0.2 {
			t.Fatalf("target %d: linear field %v, want %v", ti, v, want)
		}
	}
}

func TestPrefetchHitsAfterSmallRotation(t *testing.T) {
	donors := AnnulusPoints(2000, 9)
	targets := AnnulusPoints(300, 10)
	m := &Mapper{Kind: TreePrefetch}
	m.Map(targets, donors)
	if m.LastHits != 0 {
		t.Error("first mapping cannot have cache hits")
	}
	// Tiny rotation: nearly every cached donor remains valid.
	rotated := Rotate(donors, 0.001)
	m.Map(targets, rotated)
	total := m.LastHits + m.LastMisses
	if total == 0 {
		t.Fatal("no prefetch statistics")
	}
	if rate := float64(m.LastHits) / float64(total); rate < 0.9 {
		t.Errorf("prefetch hit rate %v after tiny rotation; want > 0.9", rate)
	}
	// Large rotation: many misses expected.
	m2 := &Mapper{Kind: TreePrefetch}
	m2.Map(targets, donors)
	m2.Map(targets, Rotate(donors, math.Pi/2))
	if m2.LastMisses == 0 {
		t.Error("quarter-turn rotation should produce cache misses")
	}
}

func TestMapWorkOrdering(t *testing.T) {
	const nt, nd = 50_000, 200_000
	brute := (&Mapper{Kind: BruteForce}).MapWork(nt, nd, true)
	tree := (&Mapper{Kind: Tree}).MapWork(nt, nd, true)
	pf := &Mapper{Kind: TreePrefetch, LastHits: 95, LastMisses: 5}
	prefetch := pf.MapWork(nt, nd, true)
	if !(tree.Flops < brute.Flops) {
		t.Errorf("tree (%v) not cheaper than brute (%v)", tree.Flops, brute.Flops)
	}
	if !(prefetch.Flops < tree.Flops) {
		t.Errorf("prefetch (%v) not cheaper than tree (%v)", prefetch.Flops, tree.Flops)
	}
	// Steady state (no rebuild) cheaper than sliding (rebuild).
	steady := (&Mapper{Kind: Tree}).MapWork(nt, nd, false)
	if !(steady.Flops < tree.Flops) {
		t.Error("no-rebuild mapping should be cheaper")
	}
}

func TestInterpolateWorkScales(t *testing.T) {
	small := InterpolateWork(100)
	big := InterpolateWork(10_000)
	if !(big.Flops > small.Flops) {
		t.Error("interpolate work should grow with targets")
	}
}

func TestRotatePreservesRadius(t *testing.T) {
	pts := AnnulusPoints(100, 11)
	rot := Rotate(pts, 1.234)
	for i := range pts {
		r0 := math.Hypot(pts[i].X, pts[i].Y)
		r1 := math.Hypot(rot[i].X, rot[i].Y)
		if math.Abs(r0-r1) > 1e-12 {
			t.Fatalf("rotation changed radius: %v vs %v", r0, r1)
		}
		if rot[i].Idx != pts[i].Idx {
			t.Fatal("rotation changed indices")
		}
	}
}

func TestAnnulusDeterministic(t *testing.T) {
	a := AnnulusPoints(50, 12)
	b := AnnulusPoints(50, 12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("AnnulusPoints not deterministic")
		}
	}
	for _, p := range a {
		r := math.Hypot(p.X, p.Y)
		if r < 0.8-1e-9 || r > 1.0+1e-9 {
			t.Fatalf("point radius %v outside annulus", r)
		}
	}
}

func TestMapEmptyDonorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty donors accepted")
		}
	}()
	(&Mapper{Kind: Tree}).Map(AnnulusPoints(5, 1), nil)
}

// Validate sanity-checks a mapping: every target has donors with weights
// summing to one.
func (mp *Mapping) Validate() error {
	for ti, idx := range mp.Donors {
		if len(idx) == 0 {
			return fmt.Errorf("coupler: target %d has no donors", ti)
		}
		sum := 0.0
		for _, w := range mp.Weights[ti] {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("coupler: target %d weights sum to %v", ti, sum)
		}
	}
	return nil
}

// Interpolate applies a mapping to donor values, producing target values.
func (mp *Mapping) Interpolate(donorVals []float64) []float64 {
	return mp.interpolateInto(make([]float64, len(mp.Donors)), donorVals)
}
