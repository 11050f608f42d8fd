package telemetry

// DefaultInterval is the virtual-time sampling period in seconds.
const DefaultInterval = 0.01

// DefaultMaxSamples bounds the samples stored per rank. Once the cap is
// reached further boundary samples are counted as dropped; cumulative
// totals and live Observer snapshots continue.
const DefaultMaxSamples = 1024

// Config enables metrics collection on a run.
type Config struct {
	// Interval is the virtual-time sampling period in seconds;
	// <= 0 selects DefaultInterval.
	Interval float64
	// MaxSamples caps the stored samples per rank; <= 0 selects
	// DefaultMaxSamples.
	MaxSamples int
	// Observer, when non-nil, receives a live snapshot each time a rank
	// crosses a sample boundary (and, past the storage cap, once per
	// clock charge). It is invoked from rank goroutines — and, inside a
	// replayed collective, from the replay leader on other ranks'
	// behalf — so it must be safe for concurrent use and must not
	// block. Mailbox depth is not available live (it needs the post-run
	// arrival merge) and is always zero in Observer snapshots.
	Observer func(rank int, s Sample)
}

func (c *Config) interval() float64 {
	if c.Interval > 0 {
		return c.Interval
	}
	return DefaultInterval
}

func (c *Config) maxSamples() int {
	if c.MaxSamples > 0 {
		return c.MaxSamples
	}
	return DefaultMaxSamples
}

// ChargeKind classifies a virtual-time charge for the compute/comm/wait
// split of a sample.
type ChargeKind uint8

// Charge kinds.
const (
	// ChargeCompute is modelled computation.
	ChargeCompute ChargeKind = iota
	// ChargeComm is directly charged communication time (per-message CPU
	// overheads, analytic schedules, stretched sub-steps).
	ChargeComm
	// ChargeWait is time blocked on a message still in flight.
	ChargeWait
)

// Sample is one point of a rank's time-series. All counters are
// cumulative since the start of the run, so any sample is also a
// progress snapshot and per-interval rates are first differences.
type Sample struct {
	T           float64 `json:"t"` // virtual time of the sample point
	Compute     float64 `json:"compute_s"`
	Comm        float64 `json:"comm_s"`
	Wait        float64 `json:"wait_s"`
	MsgsSent    uint64  `json:"msgs_sent"`
	MsgsRecv    uint64  `json:"msgs_recv"`
	BytesSent   uint64  `json:"bytes_sent"`
	BytesRecv   uint64  `json:"bytes_recv"`
	Collectives uint64  `json:"collectives"`
	// MailboxDepth is the virtual-time mailbox gauge: messages with
	// arrival <= T minus receives completed by T. Filled by Finalize;
	// zero in live Observer snapshots.
	MailboxDepth int64 `json:"mailbox_depth"`
}

// add accumulates src's counters into s (element-wise; T is kept).
func (s *Sample) add(src Sample) {
	s.Compute += src.Compute
	s.Comm += src.Comm
	s.Wait += src.Wait
	s.MsgsSent += src.MsgsSent
	s.MsgsRecv += src.MsgsRecv
	s.BytesSent += src.BytesSent
	s.BytesRecv += src.BytesRecv
	s.Collectives += src.Collectives
	s.MailboxDepth += src.MailboxDepth
}

// Collector accumulates one rank's metrics during a run. It is owned by
// the rank's goroutine (or, inside a replayed collective, by the
// replay leader while every other member is parked) and read only after
// the run completes. All methods are driven by virtual-time values.
type Collector struct {
	cur         Sample // cumulative totals; cur.T tracks the rank clock
	rank        int
	interval    float64
	invInterval float64 // 1/interval: seeds bucketOf's estimate with a multiply
	maxSamples  int
	observer    func(rank int, s Sample)
	nextK       int     // index of the next sample boundary
	nextT       float64 // nextK*interval, the time Advance compares against
	samples     []Sample
	dropped     int

	// arrivals[b] counts messages this rank received whose virtual
	// arrival fell in sample bucket b (clamped to maxSamples+1).
	// Recorded at receive completion, when the arrival timestamp is in
	// hand; Finalize prefix-sums it onto the sample grid to materialise
	// mailbox depth.
	arrivals []uint64
}

// NewCollector returns a collector for one rank.
func NewCollector(rank int, cfg *Config) *Collector {
	iv := cfg.interval()
	maxSamples := cfg.maxSamples()
	return &Collector{
		rank:        rank,
		interval:    iv,
		invInterval: 1 / iv,
		maxSamples:  maxSamples,
		observer:    cfg.Observer,
		nextK:       1,
		nextT:       iv,
		// Seed a useful capacity so short series don't churn the GC
		// through the small append-doubling steps. Non-nil, so a rank
		// with no samples exports "samples": [] rather than null.
		samples: make([]Sample, 0, min(maxSamples, 24)),
	}
}

// bucketOf returns the first sample index k with k*interval >= t. The
// reciprocal multiply only seeds the estimate; the exact comparisons
// below pin it to the minimal k, so the result is identical to the
// division form.
func (c *Collector) bucketOf(t float64) int {
	k := int(t * c.invInterval)
	if float64(k)*c.interval < t {
		k++
	}
	for k > 0 && float64(k-1)*c.interval >= t {
		k--
	}
	return k
}

// Advance accounts a clock charge of the given kind over virtual
// [t0, t1]. Crossing a sample boundary emits a sample with the charge
// prorated linearly to the boundary — extra arithmetic on separate
// accumulators, never a change to the runtime's own numbers. cur.T is
// deliberately not maintained on the no-boundary path: boundary
// crossings set it, and the run stamps the final clock via Finish.
func (c *Collector) Advance(t0, t1 float64, kind ChargeKind) {
	if t1 < c.nextT {
		c.charge(t1-t0, kind)
		return
	}
	c.advanceSlow(t0, t1, kind)
}

// Finish stamps the rank's final virtual clock on the cumulative
// totals. Call once when the rank completes (or dies).
func (c *Collector) Finish(clock float64) {
	if clock > c.cur.T {
		c.cur.T = clock
	}
}

// advanceSlow handles charges that cross at least one sample boundary.
func (c *Collector) advanceSlow(t0, t1 float64, kind ChargeKind) {
	c.cur.T = t1
	if len(c.samples) >= c.maxSamples {
		// Storage is capped: accumulate totals, count the boundaries this
		// charge crossed as dropped, and keep live snapshots flowing at
		// charge granularity instead of walking every boundary.
		c.charge(t1-t0, kind)
		lastK := int(t1 * c.invInterval)
		if float64(lastK)*c.interval > t1 {
			lastK--
		}
		for float64(lastK+1)*c.interval <= t1 {
			lastK++
		}
		c.dropped += lastK - c.nextK + 1
		c.nextK = lastK + 1
		c.nextT = float64(c.nextK) * c.interval
		if c.observer != nil {
			c.observer(c.rank, c.cur)
		}
		return
	}
	cur := t0
	for c.nextT <= t1 {
		next := c.nextT
		c.charge(next-cur, kind)
		cur = next
		c.emit(next)
		c.nextK++
		c.nextT = float64(c.nextK) * c.interval
		if len(c.samples) >= c.maxSamples {
			// The cap landed mid-charge: fall through to the capped path
			// for the remainder.
			if cur < t1 {
				c.advanceSlow(cur, t1, kind)
			}
			return
		}
	}
	c.charge(t1-cur, kind)
}

func (c *Collector) charge(s float64, kind ChargeKind) {
	switch kind {
	case ChargeCompute:
		c.cur.Compute += s
	case ChargeWait:
		c.cur.Wait += s
	default:
		c.cur.Comm += s
	}
}

// emit stores (and publishes) the sample at boundary time t.
func (c *Collector) emit(t float64) {
	s := c.cur
	s.T = t
	c.samples = append(c.samples, s)
	if c.observer != nil {
		c.observer(c.rank, s)
	}
}

// Sent records one outgoing message.
func (c *Collector) Sent(bytes int) {
	c.cur.MsgsSent++
	c.cur.BytesSent += uint64(bytes)
}

// Received records one completed receive and the received message's
// virtual arrival time. Receives are counted at the virtual time the
// receive overhead finished charging, which is always >= the arrival —
// mailbox depth can therefore never go negative.
func (c *Collector) Received(bytes uint64, arrival float64) {
	c.cur.MsgsRecv++
	c.cur.BytesRecv += bytes
	b := c.bucketOf(arrival)
	if b > c.maxSamples {
		// Beyond every storable sample point; one overflow bucket bounds
		// the storage regardless of how far arrivals outrun the cap.
		b = c.maxSamples + 1
	}
	if b >= len(c.arrivals) {
		c.arrivals = append(c.arrivals, make([]uint64, b+1-len(c.arrivals))...)
	}
	c.arrivals[b]++
}

// Collective records entry into an outermost collective operation.
func (c *Collector) Collective() { c.cur.Collectives++ }
