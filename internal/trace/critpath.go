package trace

import (
	"fmt"
	"sort"
	"strings"

	"cpx/internal/order"
)

// Segment is one span of the critical path: a contiguous stretch of
// virtual time on one rank (or, for wait segments, the in-flight message
// that blocked it, attributed to the receiving rank).
type Segment struct {
	Rank   int
	Kind   EventKind
	Region string
	Op     string
	T0, T1 float64
}

// Duration returns the segment's virtual extent.
func (s Segment) Duration() float64 { return s.T1 - s.T0 }

// CriticalPath is the causally contiguous chain of segments that sets a
// run's end-to-end virtual time: the one sequence of compute, message
// overheads and in-flight waits that no rearrangement of the other ranks
// could shorten. Segments tile [0, Elapsed] in time order, so their
// durations telescope to the run's elapsed time.
type CriticalPath struct {
	Segments []Segment
	Elapsed  float64 // end time of the path = the maximum rank clock
	EndRank  int     // rank whose clock set Elapsed
}

// Total returns the summed segment durations. For a complete set of
// timelines this equals Elapsed up to floating-point summation order.
func (cp *CriticalPath) Total() float64 {
	t := 0.0
	for _, s := range cp.Segments {
		t += s.Duration()
	}
	return t
}

// ByKind sums path time per event kind.
func (cp *CriticalPath) ByKind() map[string]float64 {
	out := map[string]float64{}
	for _, s := range cp.Segments {
		out[s.Kind.String()] += s.Duration()
	}
	return out
}

// RegionTime attributes critical-path time to one region, split into the
// compute and communication (send/recv/wait/comm) parts.
type RegionTime struct {
	Region  string  `json:"region"`
	Compute float64 `json:"compute_s"`
	Comm    float64 `json:"comm_s"`
}

// Total returns the region's overall path time.
func (r RegionTime) Total() float64 { return r.Compute + r.Comm }

// ByRegion attributes path time to profile regions, sorted by descending
// total time (name-ascending on ties).
func (cp *CriticalPath) ByRegion() []RegionTime {
	acc := map[string]*RegionTime{}
	for _, s := range cp.Segments {
		region := s.Region
		if region == "" {
			region = "other"
		}
		rt := acc[region]
		if rt == nil {
			rt = &RegionTime{Region: region}
			acc[region] = rt
		}
		if s.Kind == EvCompute {
			rt.Compute += s.Duration()
		} else {
			rt.Comm += s.Duration()
		}
	}
	out := make([]RegionTime, 0, len(acc))
	for _, region := range order.SortedKeys(acc) {
		out = append(out, *acc[region])
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Total(), out[j].Total()
		if ti != tj {
			return ti > tj
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// LabelShare attributes critical-path time to one caller-defined label
// (e.g. a solver instance or coupling unit).
type LabelShare struct {
	Label   string  `json:"label"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"` // fraction of the path total
}

// ByLabel groups path time by a rank-labelling function (wait segments
// count toward the receiving rank's label), sorted by descending share.
func (cp *CriticalPath) ByLabel(label func(rank int) string) []LabelShare {
	acc := map[string]float64{}
	total := 0.0
	for _, s := range cp.Segments {
		d := s.Duration()
		acc[label(s.Rank)] += d
		total += d
	}
	out := make([]LabelShare, 0, len(acc))
	for _, l := range order.SortedKeys(acc) {
		sec := acc[l]
		ls := LabelShare{Label: l, Seconds: sec}
		if total > 0 {
			ls.Share = sec / total
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// String renders a per-region critical-path report.
func (cp *CriticalPath) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical path: %.6f s over %d segments, ends on rank %d\n",
		cp.Elapsed, len(cp.Segments), cp.EndRank)
	byKind := cp.ByKind()
	fmt.Fprintf(&sb, "by kind: compute %.6f  wait %.6f  send %.6f  recv %.6f  comm %.6f\n",
		byKind["compute"], byKind["wait"], byKind["send"], byKind["recv"], byKind["comm"])
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s\n", "region", "compute(s)", "comm(s)", "total(s)")
	for _, rt := range cp.ByRegion() {
		fmt.Fprintf(&sb, "%-16s %12.6f %12.6f %12.6f\n", rt.Region, rt.Compute, rt.Comm, rt.Total())
	}
	return sb.String()
}

// ComputeCriticalPath walks the message-causality edges backwards from
// the maximum-clock rank: local events are followed in reverse on the
// current rank, and whenever a wait event is met — the rank was blocked
// for an in-flight message — the walk jumps along the message to its
// sender at the virtual departure time. The resulting segment chain is
// contiguous in time from 0 to the run's elapsed virtual time.
//
// Timelines must be complete (no dropped events) and indexed by world
// rank, with Event.Peer/SendT referring to world ranks and times.
func ComputeCriticalPath(timelines []*Timeline) (*CriticalPath, error) {
	totalEvents := 0
	cur, end := -1, 0.0
	for r, tl := range timelines {
		if tl == nil {
			return nil, fmt.Errorf("trace: critical path: rank %d has no timeline", r)
		}
		if tl.Dropped > 0 {
			return nil, fmt.Errorf("trace: critical path: rank %d dropped %d events past its cap of %d", r, tl.Dropped, tl.limit)
		}
		totalEvents += len(tl.Events)
		if e := tl.End(); cur < 0 || e > end {
			cur, end = r, e
		}
	}
	if cur < 0 {
		return nil, fmt.Errorf("trace: critical path: no timelines")
	}
	cp := &CriticalPath{Elapsed: end, EndRank: cur}
	if end <= 0 {
		return cp, nil
	}

	// lastEventEndingBy returns the index of the last event with T1 <= t;
	// by construction a causality jump always lands on an event boundary.
	lastEventEndingBy := func(tl *Timeline, t float64) int {
		return sort.Search(len(tl.Events), func(i int) bool { return tl.Events[i].T1 > t }) - 1
	}

	t := end
	i := len(timelines[cur].Events) - 1
	var segs []Segment
	for iter := 0; t > 0; iter++ {
		if iter > totalEvents {
			return nil, fmt.Errorf("trace: critical path: walk did not terminate (cycle at t=%g, rank %d)", t, cur)
		}
		if i < 0 {
			return nil, fmt.Errorf("trace: critical path: rank %d timeline does not reach back to t=%g", cur, t)
		}
		ev := timelines[cur].Events[i]
		if ev.Kind == EvWait && ev.Peer >= 0 && ev.Peer < len(timelines) {
			// The rank was blocked for an in-flight message: the chain
			// continues through the network back to the sender.
			segs = append(segs, Segment{Rank: cur, Kind: EvWait, Region: ev.Region, Op: ev.Op, T0: ev.SendT, T1: t})
			cur = ev.Peer
			t = ev.SendT
			i = lastEventEndingBy(timelines[cur], t)
			continue
		}
		segs = append(segs, Segment{Rank: cur, Kind: ev.Kind, Region: ev.Region, Op: ev.Op, T0: ev.T0, T1: t})
		t = ev.T0
		i--
	}
	// Reverse into time order and merge contiguous same-attribution spans.
	for l, r := 0, len(segs)-1; l < r; l, r = l+1, r-1 {
		segs[l], segs[r] = segs[r], segs[l]
	}
	merged := segs[:0]
	for _, s := range segs {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.Rank == s.Rank && last.Kind == s.Kind && last.Region == s.Region && last.Op == s.Op && last.T1 == s.T0 {
				last.T1 = s.T1
				continue
			}
		}
		merged = append(merged, s)
	}
	cp.Segments = merged
	return cp, nil
}
