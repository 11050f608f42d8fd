package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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

// chromeChunk is how many encoded bytes WriteChromeTrace gathers before
// handing them to its writer.
const chromeChunk = 64 << 10

// WriteChromeTrace emits the timelines in Chrome trace-event JSON, one
// thread per rank, with virtual seconds mapped to trace microseconds.
// The output loads directly in ui.perfetto.dev or chrome://tracing.
//
// It streams: each event is appended to one reused buffer that goes to
// w in chunks of chromeChunk bytes. The bytes are those encoding/json
// gives the document {"traceEvents":[...],"displayTimeUnit":"ms"}, each
// event's fields in the order name, cat, ph, ts, dur, pid, tid, args,
// dur left out when zero and args when the event has no peer. A
// non-finite time is an error; what was written before it is a failed
// export.
func WriteChromeTrace(w io.Writer, timelines []*Timeline) error {
	e := chromeEncoder{buf: make([]byte, 0, chromeChunk+4<<10), quoted: make(map[string][]byte)}
	e.buf = append(e.buf, `{"traceEvents":`...)
	sep := byte('[') // then ','; still '[' at the end means no timeline
	for _, tl := range timelines {
		if tl == nil {
			continue
		}
		e.buf = append(e.buf, sep)
		sep = ','
		e.buf = append(e.buf, `{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":`...)
		e.buf = strconv.AppendInt(e.buf, int64(tl.Rank), 10)
		e.buf = append(e.buf, `,"args":{"name":"rank `...)
		e.buf = strconv.AppendInt(e.buf, int64(tl.Rank), 10)
		e.buf = append(e.buf, `"}}`...)
		for i := range tl.Events {
			if err := e.event(&tl.Events[i], tl.Rank); err != nil {
				return err
			}
			if len(e.buf) >= chromeChunk {
				if _, err := w.Write(e.buf); err != nil {
					return err
				}
				e.buf = e.buf[:0]
			}
		}
	}
	if sep == '[' {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, ",\"displayTimeUnit\":\"ms\"}\n"...)
	_, err := w.Write(e.buf)
	return err
}

// chromeEncoder holds WriteChromeTrace's output buffer and each distinct
// name and category already quoted as a JSON string.
type chromeEncoder struct {
	buf    []byte
	quoted map[string][]byte
}

// event appends ",{...}" for one span of rank's timeline.
func (e *chromeEncoder) event(ev *Event, rank int) error {
	name := ev.Region
	if ev.Op != "" {
		name = ev.Op
	}
	if name == "" {
		name = ev.Kind.String()
	}
	ts, dur := ev.T0*1e6, ev.Duration()*1e6
	if !finite(ts) || !finite(dur) {
		return fmt.Errorf("trace: rank %d event [%v, %v] has a non-finite time", rank, ev.T0, ev.T1)
	}
	e.buf = append(e.buf, `,{"name":`...)
	e.buf = append(e.buf, e.quote(name)...)
	e.buf = append(e.buf, `,"cat":`...)
	e.buf = append(e.buf, e.quote(ev.Kind.String())...)
	e.buf = append(e.buf, `,"ph":"X","ts":`...)
	e.buf = appendJSONFloat(e.buf, ts)
	if dur != 0 {
		e.buf = append(e.buf, `,"dur":`...)
		e.buf = appendJSONFloat(e.buf, dur)
	}
	e.buf = append(e.buf, `,"pid":0,"tid":`...)
	e.buf = strconv.AppendInt(e.buf, int64(rank), 10)
	if ev.Peer >= 0 {
		e.buf = append(e.buf, `,"args":{"bytes":`...)
		e.buf = strconv.AppendInt(e.buf, int64(ev.Bytes), 10)
		e.buf = append(e.buf, `,"peer":`...)
		e.buf = strconv.AppendInt(e.buf, int64(ev.Peer), 10)
		e.buf = append(e.buf, `,"tag":`...)
		e.buf = strconv.AppendInt(e.buf, int64(ev.Tag), 10)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, '}')
	return nil
}

// quote returns s as encoding/json writes it: HTML characters, U+2028,
// U+2029 and invalid UTF-8 escaped. Each distinct s is marshalled once.
func (e *chromeEncoder) quote(s string) []byte {
	q, ok := e.quoted[s]
	if !ok {
		q, _ = json.Marshal(s) // a string always marshals
		e.quoted[s] = q
	}
	return q
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// 'f' format, 'e' below 1e-6 and from 1e21 in magnitude, with a
// two-digit negative exponent shortened to one ("e-07" -> "e-7").
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}
