package telemetry

// FlightEvent is one event of a flight-recorder tail — a send, receive or
// collective entry with its virtual timestamp. With RankTail it is the
// export schema of a failed run's post-mortem trail; the runtime keeps
// the trail itself in a keep-last trace.Timeline per rank.
type FlightEvent struct {
	T     float64 `json:"t"`              // virtual seconds
	Kind  string  `json:"kind"`           // "send", "recv" or "collective"
	Peer  int     `json:"peer,omitempty"` // world rank of the peer (send/recv)
	Bytes int     `json:"bytes,omitempty"`
	Tag   int     `json:"tag,omitempty"`
	Op    string  `json:"op,omitempty"` // collective operation name
}

// RankTail is one rank's flight-recorder dump.
type RankTail struct {
	Rank     int           `json:"rank"`
	FailedAt float64       `json:"failed_at,omitempty"` // virtual death time; 0 when the rank did not die
	Total    uint64        `json:"events_total"`
	Events   []FlightEvent `json:"events"`
}
