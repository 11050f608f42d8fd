package fault

import (
	"math"
	"testing"

	"cpx/internal/cluster"
)

func TestNewPlanDeterministic(t *testing.T) {
	sp := Spec{Seed: 7, Ranks: 64, Horizon: 100, MTBF: 5, StragglerEvery: 20, LinkEvery: 30}
	a, err := NewPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Crashes) == 0 || len(a.Stragglers) == 0 || len(a.LinkFaults) == 0 {
		t.Fatalf("plan empty: %d crashes, %d stragglers, %d links",
			len(a.Crashes), len(a.Stragglers), len(a.LinkFaults))
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatalf("crash %d differs between identical specs", i)
		}
	}
	for i := range a.Stragglers {
		if a.Stragglers[i] != b.Stragglers[i] {
			t.Fatalf("straggler %d differs", i)
		}
	}
	for i := range a.LinkFaults {
		if a.LinkFaults[i] != b.LinkFaults[i] {
			t.Fatalf("link fault %d differs", i)
		}
	}
	c, _ := NewPlan(Spec{Seed: 8, Ranks: 64, Horizon: 100, MTBF: 5})
	if len(c.Crashes) == len(a.Crashes) {
		same := true
		for i := range c.Crashes {
			if c.Crashes[i] != a.Crashes[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical crash schedules")
		}
	}
}

func TestNewPlanCrashesSortedAndBounded(t *testing.T) {
	p, err := NewPlan(Spec{Seed: 1, Ranks: 8, Horizon: 1e9, MTBF: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != maxEvents {
		t.Fatalf("degenerate spec generated %d crashes, want cap %d", len(p.Crashes), maxEvents)
	}
	for i := 1; i < len(p.Crashes); i++ {
		if p.Crashes[i].At < p.Crashes[i-1].At {
			t.Fatal("crashes not sorted by time")
		}
	}
	for _, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= 8 {
			t.Fatalf("crash rank %d out of range", c.Rank)
		}
	}
}

func TestPeriodicPlanMatchesDaly(t *testing.T) {
	p, err := NewPlan(Spec{Seed: 1, Ranks: 4, Horizon: 10, MTBF: 3, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 3 {
		t.Fatalf("got %d crashes, want 3 (at 3,6,9)", len(p.Crashes))
	}
	for i, c := range p.Crashes {
		if want := 3 * float64(i+1); c.At != want {
			t.Errorf("crash %d at %v, want %v", i, c.At, want)
		}
	}
}

func TestCrashTime(t *testing.T) {
	p := &Plan{Crashes: []Crash{{Rank: 2, At: 5}, {Rank: 2, At: 3}, {Rank: 1, At: 1}}}
	if got := p.CrashTime(2); got != 3 {
		t.Errorf("CrashTime(2) = %v, want earliest 3", got)
	}
	if got := p.CrashTime(0); !math.IsInf(got, 1) {
		t.Errorf("CrashTime(0) = %v, want +Inf", got)
	}
}

func TestAfterDropsConsumedCrashes(t *testing.T) {
	p := &Plan{
		Crashes:    []Crash{{Rank: 1, At: 1}, {Rank: 2, At: 2}, {Rank: 3, At: 3}},
		Stragglers: []Straggler{{Node: 0, Factor: 2, From: 0, To: 10}},
	}
	q := p.After(2)
	if len(q.Crashes) != 1 || q.Crashes[0].Rank != 3 {
		t.Fatalf("After(2) kept %+v, want only rank 3", q.Crashes)
	}
	if len(q.Stragglers) != 1 {
		t.Fatal("After dropped stragglers; slow nodes must persist across restarts")
	}
}

func TestComputeSecondsNoStragglersIsIdentity(t *testing.T) {
	p := &Plan{}
	for _, s := range []float64{0, 1e-9, 0.3, 7.125} {
		if got := p.ComputeSeconds(0, 2, s); got != s {
			t.Errorf("ComputeSeconds(%v) = %v, want bitwise identity", s, got)
		}
	}
}

func TestComputeSecondsPiecewiseStretch(t *testing.T) {
	// Factor-4 window over [1, 2): a 1s charge starting at 0.5 runs
	// 0.5s at full rate, then the remaining 0.5s of work takes 2s of
	// window (0.5*4 > window remainder fails: window is 1s long, holds
	// 0.25s of nominal work), then 0.25s past the window.
	p := &Plan{Stragglers: []Straggler{{Node: 0, Factor: 4, From: 1, To: 2}}}
	got := p.ComputeSeconds(0, 0.5, 1)
	want := 0.5 + 1 + 0.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("stretched charge = %v, want %v", got, want)
	}
	// Entirely inside the window: plain multiplication.
	if got := p.ComputeSeconds(0, 1, 0.1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("in-window charge = %v, want 0.4", got)
	}
	// Other nodes unaffected.
	if got := p.ComputeSeconds(3, 1, 0.1); got != 0.1 {
		t.Errorf("other node stretched: %v", got)
	}
	// Node -1 hits every node.
	all := &Plan{Stragglers: []Straggler{{Node: -1, Factor: 2, From: 0, To: 100}}}
	if got := all.ComputeSeconds(5, 1, 0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("machine-wide straggler = %v, want 0.2", got)
	}
}

func TestComputeSecondsOverlappingWindowsCompound(t *testing.T) {
	p := &Plan{Stragglers: []Straggler{
		{Node: 0, Factor: 2, From: 0, To: 10},
		{Node: 0, Factor: 3, From: 0, To: 10},
	}}
	if got := p.ComputeSeconds(0, 1, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("compound factors = %v, want 0.5*6 = 3", got)
	}
}

func TestTransferTimeMatchesMachineWithoutFaults(t *testing.T) {
	m := cluster.SmallCluster()
	p := &Plan{}
	for _, bytes := range []int{0, 8, 4096, 1 << 20} {
		want := m.TransferTime(0, m.CoresPerNode, bytes)
		if got := p.TransferTime(m, 0, m.CoresPerNode, bytes, 0.5); got != want {
			t.Errorf("bytes=%d: fault-free TransferTime %v != machine %v (must be bitwise)", bytes, got, want)
		}
	}
}

func TestTransferTimeDegradesInsideEpoch(t *testing.T) {
	m := cluster.SmallCluster()
	p := &Plan{LinkFaults: []LinkFault{{Node: -1, From: 1, To: 2, Alpha: 8, Beta: 4}}}
	src, dst := 0, m.CoresPerNode // inter-node path
	clean := m.TransferTime(src, dst, 1<<20)
	during := p.TransferTime(m, src, dst, 1<<20, 1.5)
	before := p.TransferTime(m, src, dst, 1<<20, 0.5)
	after := p.TransferTime(m, src, dst, 1<<20, 2.0) // epochs are [From, To)
	if before != clean || after != clean {
		t.Errorf("outside epoch: %v / %v, want clean %v", before, after, clean)
	}
	if during <= clean {
		t.Errorf("inside epoch %v not slower than clean %v", during, clean)
	}
	lat, bw := m.Link(src, dst)
	want := lat*8 + float64(1<<20)/(bw/4)
	if math.Abs(during-want) > 1e-15*want {
		t.Errorf("degraded delay %v, want %v", during, want)
	}
	// Node-targeted fault leaves unrelated paths alone.
	tp := &Plan{LinkFaults: []LinkFault{{Node: 99, From: 0, To: 10, Alpha: 8, Beta: 4}}}
	if got := tp.TransferTime(m, src, dst, 4096, 1); got != m.TransferTime(src, dst, 4096) {
		t.Error("fault on unrelated node degraded this path")
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []*Plan{
		{Crashes: []Crash{{Rank: -1, At: 1}}},
		{Crashes: []Crash{{Rank: 0, At: -1}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 0.5, From: 0, To: 1}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 2, From: 1, To: 1}}},
		{LinkFaults: []LinkFault{{Node: 0, From: 2, To: 1, Alpha: 2}}},
		{LinkFaults: []LinkFault{{Node: 0, From: 0, To: 1, Alpha: -2}}},
		{DetectionLatency: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	good := &Plan{Crashes: []Crash{{Rank: 0, At: 1}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestDetectionDefaults(t *testing.T) {
	if got := (&Plan{}).Detection(); got != DefaultDetectionLatency {
		t.Errorf("zero latency = %v, want default", got)
	}
	if got := (&Plan{DetectionLatency: 0.25}).Detection(); got != 0.25 {
		t.Errorf("explicit latency = %v, want 0.25", got)
	}
}

func TestYoungInterval(t *testing.T) {
	if got := YoungInterval(2, 100); math.Abs(got-20) > 1e-12 {
		t.Errorf("YoungInterval(2,100) = %v, want 20", got)
	}
	if YoungInterval(0, 100) != 0 || YoungInterval(1, 0) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

func TestDigestOrderAndValueSensitivity(t *testing.T) {
	d1 := NewDigest()
	d1.Floats([]float64{1, 2, 3})
	d2 := NewDigest()
	d2.Floats([]float64{1, 3, 2})
	if d1.Sum64() == d2.Sum64() {
		t.Error("digest insensitive to order")
	}
	d3 := NewDigest()
	d3.Float(0.0)
	d4 := NewDigest()
	d4.Float(math.Copysign(0, -1))
	if d3.Sum64() == d4.Sum64() {
		t.Error("digest conflates +0 and -0: not bitwise")
	}
	d5 := NewDigest()
	d5.Floats([]float64{1, 2, 3})
	if d5.Sum64() != d1.Sum64() {
		t.Error("digest not deterministic")
	}
}
