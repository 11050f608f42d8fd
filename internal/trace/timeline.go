package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventKind classifies a timeline event by how its virtual time was spent.
type EventKind uint8

// Event kinds.
const (
	// EvCompute is modelled computation charged to the rank clock.
	EvCompute EventKind = iota
	// EvSend is the per-message CPU overhead of posting a send.
	EvSend
	// EvRecv is the per-message CPU overhead of completing a receive.
	EvRecv
	// EvWait is time the rank was blocked for a message still in flight;
	// its SendT records the virtual departure time at the sender, forming
	// the causality edge the critical-path analysis follows.
	EvWait
	// EvComm is directly charged communication time (analytic schedules,
	// stretched sub-steps) with no single peer.
	EvComm
	// EvCollective is a zero-length mark of entry into an outermost
	// collective operation, named by Op. Only flight rings hold it.
	EvCollective
)

// String returns the kind's stable lower-case name.
func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvWait:
		return "wait"
	case EvComm:
		return "comm"
	case EvCollective:
		return "collective"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Event is one span of a rank's virtual-time timeline. Events tile the
// rank clock: every clock advance produces exactly one event, so a
// complete timeline covers [0, clock] with no gaps.
type Event struct {
	Kind   EventKind
	T0, T1 float64 // virtual begin/end seconds
	Region string  // innermost profile region when the time was charged
	Op     string  // collective operation label ("allreduce", ...), if any
	Peer   int     // world rank of the peer for send/recv/wait; -1 if none
	Bytes  int     // message payload bytes for send/recv/wait
	Tag    int     // message tag for send/recv/wait
	SendT  float64 // EvWait only: virtual departure time at the sender
}

// Duration returns the event's virtual extent.
func (e Event) Duration() float64 { return e.T1 - e.T0 }

// DefaultMaxEvents bounds the per-rank timeline unless overridden.
const DefaultMaxEvents = 1 << 20

// Timeline is the ordered event record of one rank. It is owned by that
// rank's goroutine during a run (or, inside a replayed collective, by
// the replay leader while the rank is parked) and read only after
// completion.
type Timeline struct {
	Rank     int
	Events   []Event
	Dropped  int // events discarded (keep-first) or evicted (keep-last) at the cap
	limit    int
	keepLast bool // keep the last limit events rather than the first
	head     int  // keep-last only: index of the oldest event once full
}

// NewTimeline returns an empty timeline for a rank that keeps its first
// maxEvents events. maxEvents <= 0 selects DefaultMaxEvents.
func NewTimeline(rank, maxEvents int) *Timeline {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Timeline{Rank: rank, limit: maxEvents}
}

// NewKeepLast returns a timeline that keeps a rank's last depth (> 0)
// events, each new one evicting the oldest once full: a post-mortem
// ring, read through Ordered.
func NewKeepLast(rank, depth int) *Timeline {
	return &Timeline{Rank: rank, limit: depth, keepLast: true}
}

// Add appends an event, coalescing contiguous compute/comm spans of the
// same region and op so tight charge loops stay O(1) in memory. Once the
// cap is hit, further non-coalescible events are counted in Dropped.
func (tl *Timeline) Add(ev Event) {
	n := len(tl.Events)
	if n > 0 && (ev.Kind == EvCompute || ev.Kind == EvComm) {
		i := n - 1
		if tl.head > 0 {
			i = tl.head - 1 // a wrapped keep-last ring's newest event
		}
		last := &tl.Events[i]
		if last.Kind == ev.Kind && last.Region == ev.Region && last.Op == ev.Op && last.T1 == ev.T0 {
			last.T1 = ev.T1
			return
		}
	}
	if n >= tl.limit {
		tl.Dropped++
		if tl.keepLast {
			tl.Events[tl.head] = ev
			tl.head = (tl.head + 1) % n
		}
		return
	}
	tl.Events = append(tl.Events, ev)
}

// Ordered returns the retained events oldest first, copying them only
// for a keep-last timeline that has wrapped.
func (tl *Timeline) Ordered() []Event {
	n := len(tl.Events)
	return append(tl.Events[tl.head:n:n], tl.Events[:tl.head]...)
}

// End returns the timeline's final virtual time (the rank clock at exit).
func (tl *Timeline) End() float64 {
	if len(tl.Events) == 0 {
		return 0
	}
	return tl.Events[len(tl.Events)-1].T1
}

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

// WriteChromeTrace emits the timelines in Chrome trace-event JSON, one
// thread per rank, with virtual seconds mapped to trace microseconds.
// The output loads directly in ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, timelines []*Timeline) error {
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
