package trace_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/mpi"
	"cpx/internal/trace"
)

// chromeEvent is one entry of the Chrome/Perfetto trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object Perfetto and chrome://tracing
// both accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// referenceWriteChromeTrace is the reflection-based encoder
// WriteChromeTrace replaced: every event built as a chromeEvent, the
// whole document marshalled by encoding/json. WriteChromeTrace must
// write its bytes exactly, or fail where it fails.
func referenceWriteChromeTrace(w io.Writer, timelines []*trace.Timeline) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	for _, tl := range timelines {
		if tl == nil {
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tl.Rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", tl.Rank)},
		})
		for _, ev := range tl.Events {
			name := ev.Region
			if ev.Op != "" {
				name = ev.Op
			}
			if name == "" {
				name = ev.Kind.String()
			}
			ce := chromeEvent{
				Name: name,
				Cat:  ev.Kind.String(),
				Ph:   "X",
				Ts:   ev.T0 * 1e6,
				Dur:  ev.Duration() * 1e6,
				Pid:  0,
				Tid:  tl.Rank,
			}
			if ev.Peer >= 0 {
				ce.Args = map[string]any{"peer": ev.Peer, "bytes": ev.Bytes, "tag": ev.Tag}
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// checkChromeMatchesReference fails t unless WriteChromeTrace writes the
// reference's bytes, or both return an error.
func checkChromeMatchesReference(t *testing.T, tls []*trace.Timeline) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := trace.WriteChromeTrace(&got, tls)
	wantErr := referenceWriteChromeTrace(&want, tls)
	switch {
	case gotErr != nil && wantErr != nil:
	case gotErr != nil || wantErr != nil:
		t.Fatalf("error %v, reference error %v", gotErr, wantErr)
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("output differs from the reference at byte %d of %d/%d:\n got  %q\n want %q",
			i, len(g), len(w), g[max(0, i-60):min(len(g), i+60)], w[max(0, i-60):min(len(w), i+60)])
	}
}

// timeline returns a keep-first timeline of rank holding evs as given,
// without Add's coalescing.
func timeline(rank int, evs ...trace.Event) *trace.Timeline {
	tl := trace.NewTimeline(rank, 0)
	tl.Events = evs
	return tl
}

func TestWriteChromeTraceMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	span := func(t0, t1 float64) trace.Event {
		return trace.Event{Kind: trace.EvCompute, T0: t0, T1: t1, Region: "flux", Peer: -1}
	}
	named := func(region, op string, kind trace.EventKind, peer int) trace.Event {
		return trace.Event{Kind: kind, T0: 0.25, T1: 0.5, Region: region, Op: op, Peer: peer, Bytes: 800, Tag: 4}
	}
	var naming []trace.Event
	for _, peer := range []int{-1, 0, 7} {
		for _, kind := range []trace.EventKind{trace.EvCompute, trace.EvSend, trace.EvRecv, trace.EvWait, trace.EvComm, trace.EvCollective, 9} {
			naming = append(naming,
				named("halo", "allreduce", kind, peer), // Op wins
				named("halo", "", kind, peer),          // then Region
				named("", "", kind, peer))              // then the kind
		}
	}
	long := trace.NewTimeline(5, 0)
	for i := range 3000 { // several chunks
		long.Add(trace.Event{Kind: trace.EventKind(i % 6), T0: float64(i) * 1e-3, T1: float64(i+1) * 1e-3,
			Region: "region", Op: []string{"", "bcast"}[i%2], Peer: i%5 - 1, Bytes: 8 * i, Tag: i % 3})
	}
	cases := map[string][]*trace.Timeline{
		"nil":              nil,
		"empty":            {},
		"all nil":          {nil, nil, nil},
		"no events":        {trace.NewTimeline(0, 0)},
		"nil beside empty": {nil, trace.NewTimeline(2, 0), nil, trace.NewTimeline(-1, 0)},
		"zero durations":   {timeline(0, span(0, 0), span(1, 1), span(0, negZero), span(negZero, 0), span(negZero, negZero))},
		"tiny times":       {timeline(1, span(1e-13, 2e-13), span(9.99e-13, 1e-12), span(1e-12, 1e-12+5e-19), span(5e-324, 1e-310), span(-1e-13, 0))},
		"huge times":       {timeline(1, span(1e15, 2e15), span(999999999999999.9, 1e15), span(0, 1e15), span(-1e16, 0), span(1e300, 1e301))},
		"ordinary times":   {timeline(3, span(0, 1.5), span(1.5, 1.6), span(0.1, 0.3), span(1/3.0, 2/3.0), span(123.456, 789.012))},
		"inf start":        {timeline(0, span(0, 1), span(math.Inf(1), math.Inf(1)))},
		"inf end":          {timeline(0, span(0, math.Inf(1)))},
		"minus inf":        {timeline(0, span(math.Inf(-1), 0))},
		"nan start":        {timeline(0, span(math.NaN(), 1))},
		"nan end":          {timeline(0, span(1, math.NaN()))},
		"overflowing ts":   {timeline(0, span(1e303, 1e303))},
		"overflowing dur":  {timeline(0, span(-1.5e308, 1.5e308))},
		"escaped names": {timeline(0,
			named(`say "hi"`, "", trace.EvCompute, -1),
			named(`back\slash`, "", trace.EvCompute, -1),
			named("<script>&amp;", "", trace.EvCompute, 3),
			named("line\u2028sep\u2029para", "", trace.EvCompute, -1),
			named("bad \xff\xfe utf-8", "", trace.EvCompute, -1),
			named("", "op\x00\x1f\t\n", trace.EvSend, 1),
			named("ünïcødé 名前", "", trace.EvCompute, -1))},
		"naming":         {timeline(4, naming...)},
		"several ranks":  {timeline(0, named("a", "", trace.EvCompute, -1)), nil, timeline(2, named("b", "", trace.EvWait, 0)), timeline(1)},
		"extreme fields": {timeline(math.MaxInt, trace.Event{Kind: trace.EvSend, T1: 1, Peer: math.MaxInt, Bytes: math.MinInt, Tag: -1})},
		"chunks":         {long, timeline(6, span(0, 1))},
	}
	for name, tls := range cases {
		t.Run(name, func(t *testing.T) { checkChromeMatchesReference(t, tls) })
	}
}

// TestWriteChromeTraceMatchesReferenceOnCoupledRun replays a traced
// coupled run, two MG-CFD instances and a sliding-plane unit, through
// both encoders.
func TestWriteChromeTraceMatchesReferenceOnCoupledRun(t *testing.T) {
	sim := &coupler.Simulation{
		Instances: []coupler.InstanceSpec{
			{Name: "small", Kind: coupler.KindMGCFD, MeshCells: 1024, Ranks: 4, Seed: 1},
			{Name: "big", Kind: coupler.KindMGCFD, MeshCells: 262144, Ranks: 4, Seed: 2},
		},
		Units: []coupler.UnitSpec{
			{Name: "cu", A: 0, B: 1, Kind: coupler.SlidingPlane, Points: 2000, Ranks: 2, Search: coupler.Tree, ExchangeEvery: 2},
		},
		DensitySteps:    3,
		RotationPerStep: 0.001,
		Scale:           coupler.Scale{MaxPointsPerSide: 256},
	}
	rep, err := sim.Run(mpi.Config{Machine: cluster.SmallCluster(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, tl := range rep.Stats.Timelines {
		events += len(tl.Events)
	}
	if events < 1000 {
		t.Fatalf("coupled run recorded %d events, want a trace of several chunks", events)
	}
	checkChromeMatchesReference(t, rep.Stats.Timelines)
}

// errWriter fails every write.
type errWriter struct{}

var errWrite = errors.New("disk full")

func (errWriter) Write([]byte) (int, error) { return 0, errWrite }

func TestWriteChromeTraceReturnsWriteError(t *testing.T) {
	for _, tls := range [][]*trace.Timeline{nil, {timeline(0, trace.Event{T1: 1, Peer: -1})}} {
		if err := trace.WriteChromeTrace(errWriter{}, tls); !errors.Is(err, errWrite) {
			t.Errorf("error %v, want the writer's", err)
		}
	}
}

// TestWriteChromeTraceAllocsFlat holds WriteChromeTrace's allocations
// constant in the event count: the same ranks and names at 1k and 64k
// events must cost the same, so no per-event map or slice creeps back.
// It runs in non-race builds only: under -race, sync.Pool drops Puts at
// random, so json.Marshal's pooled encoder allocates a random number of
// times at either count.
func TestWriteChromeTraceAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are random under the race detector")
	}
	build := func(events int) []*trace.Timeline {
		const ranks = 8
		tls := make([]*trace.Timeline, ranks)
		for r := range tls {
			tls[r] = trace.NewTimeline(r, 0)
			tls[r].Events = make([]trace.Event, 0, events/ranks)
			for i := range events / ranks {
				tls[r].Events = append(tls[r].Events, trace.Event{
					Kind: trace.EventKind(i % 5), T0: float64(i) * 1e-4, T1: float64(i+1) * 1e-4,
					Region: []string{"flux", "halo", "update"}[i%3], Op: []string{"", "allreduce"}[i%2],
					Peer: i%3 - 1, Bytes: 8 * i, Tag: i % 4})
			}
		}
		return tls
	}
	allocs := func(tls []*trace.Timeline) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := trace.WriteChromeTrace(io.Discard, tls); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(1<<10)), allocs(build(64<<10))
	if large > small {
		t.Errorf("%v allocations at 64k events, %v at 1k: they must not grow with the event count", large, small)
	}
}

// specialFloats are the float values FuzzWriteChromeTrace picks from
// besides raw bits: both zeros, NaN, both infinities, subnormals and the
// edges of encoding/json's 'e' format, in seconds and in microseconds.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-6, 1e-12, 9.999999999999999e-13, 1e-7, 1e15, 1e21, 999999999999999.9,
	0.5, 1.5, 1 / 3.0, 2e302,
}

// fuzzReader hands out the fuzz input a field at a time; past its end
// every field is zero.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) bytes(n int) []byte {
	n = min(n, len(r.b))
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// float is a special value when the selector byte is below their count,
// otherwise eight raw bytes of bits.
func (r *fuzzReader) float() float64 {
	if i := int(r.byte()); i < len(specialFloats) {
		return specialFloats[i]
	}
	var b [8]byte
	copy(b[:], r.bytes(8))
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (r *fuzzReader) string() string { return string(r.bytes(int(r.byte() % 12))) }

func (r *fuzzReader) int() int { return int(int16(uint16(r.byte()) | uint16(r.byte())<<8)) }

// timelines decodes up to four timelines of up to eight events each;
// a timeline slot may be nil.
func (r *fuzzReader) timelines() []*trace.Timeline {
	tls := make([]*trace.Timeline, r.byte()%5)
	for i := range tls {
		head := r.byte()
		if head&1 != 0 {
			continue
		}
		tl := trace.NewTimeline(int(int8(r.byte())), 0)
		for range int(head>>1) % 9 {
			tl.Events = append(tl.Events, trace.Event{
				Kind: trace.EventKind(r.byte()), T0: r.float(), T1: r.float(),
				Region: r.string(), Op: r.string(),
				Peer: int(int8(r.byte())), Bytes: r.int(), Tag: r.int()})
		}
		tls[i] = tl
	}
	return tls
}

// FuzzWriteChromeTrace checks WriteChromeTrace against the reference
// encoder on arbitrary timelines: any name bytes, any float bits, either
// sign of Peer. Both must write the same bytes or both fail.
func FuzzWriteChromeTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0})
	f.Add([]byte{1, 2, 7, 0, 0, 16, 4, 'f', 'l', 'u', 'x', 0, 0xff, 0, 0, 0, 0})
	f.Add([]byte{2, 4, 3, 3, 1, 9, 2, '<', '&', 3, 0xe2, 0x80, 0xa8, 5, 0x10, 0, 4, 0})
	f.Add([]byte{1, 6, 250, 1, 11, 14, 1, '"', 1, '\\', 0x80, 1, 2, 3, 4, 2, 0, 0, 13, 20, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 0, 0, 0, 0xff, 1, 2, 3, 4, 5, 6, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		checkChromeMatchesReference(t, r.timelines())
	})
}
