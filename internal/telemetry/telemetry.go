// Package telemetry is the live-observability layer of the virtual-time
// runtime: per-rank metrics sampled at fixed *virtual-time* intervals,
// and a bounded flight recorder of recent runtime events for post-mortem
// dumps of crashed or cancelled runs.
//
// Determinism is the design constraint. Every sample point is derived
// from the rank's virtual clock — never the host clock — and the
// collector only *observes* charges the runtime was already making: it
// keeps separate accumulators and never modifies the existing clock or
// accounting arithmetic. A run with metrics on therefore produces
// bitwise-identical virtual times, statistics and traces to the same run
// with metrics off (enforced by differential tests in internal/mpi and
// internal/coupler), and the metric series themselves are identical
// across host parallelism levels.
//
// Mailbox depth is the one gauge a naive implementation would make
// host-scheduling-dependent (the instantaneous length of a mailbox
// depends on which goroutine ran first). It is instead defined purely in
// virtual time: depth at sample point kΔ is the number of messages whose
// virtual *arrival* is <= kΔ minus the number of receives the rank had
// *completed* by kΔ. Both timestamps are known to the receiver when a
// receive completes (completion is always >= arrival, so the gauge is
// never negative), so arrivals are bucketed receiver-side into one dense
// per-rank array — no cross-rank merge, no per-message storage. The one
// consequence: a message that is never received does not enter the
// gauge, making it the depth of the eventually-consumed queue. Every
// input is a function of virtual timestamps only.
package telemetry

import "math"

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
	// nextT and cur's leading time fields sit first so the per-charge
	// fast path (one compare, one direct field add) stays within one
	// cache line — at 512 ranks the hook runs hundreds of thousands of
	// times per run and extra line traffic is the dominant cost.
	nextT float64 // nextK*interval, cached so the per-charge fast path is one compare
	cur   Sample  // cumulative totals; cur.T tracks the rank clock

	rank        int
	interval    float64
	invInterval float64 // 1/interval: turns the per-send bucket division into a multiply
	maxSamples  int
	observer    func(rank int, s Sample)
	nextK       int // index of the next sample boundary
	samples     []Sample
	dropped     int

	// arrivals[b] counts messages this rank received whose virtual
	// arrival fell in sample bucket b (clamped to maxSamples+1).
	// Recorded at receive completion, when the arrival timestamp is in
	// hand; Finalize prefix-sums it onto the sample grid to materialise
	// mailbox depth. arrPtr caches the counter of the bucket holding
	// arrLast, the previous arrival time, so the repeat-arrival fast
	// path in Received is a single equality compare — virtual arrivals
	// cluster at identical timestamps during synchronized phases. The
	// constructors seed arrLast with NaN (never equal), forcing the
	// first receive down the slow path before arrPtr is read.
	arrLast  float64
	arrPtr   *uint64
	arrivals []uint64
}

// NewCollector returns a collector for one rank.
func NewCollector(rank int, cfg *Config) *Collector {
	iv := cfg.interval()
	c := &Collector{
		rank:        rank,
		interval:    iv,
		invInterval: 1 / iv,
		maxSamples:  cfg.maxSamples(),
		observer:    cfg.Observer,
		nextK:       1,
		nextT:       iv,
		arrLast:     math.NaN(),
	}
	return c
}

// NewCollectors returns one collector per rank for a whole run. The
// collectors, their initial sample storage and their arrival buckets
// are carved out of three shared slabs — three allocations instead of
// ~3n, which matters at hundreds of ranks where per-run GC pressure is
// the dominant metrics cost. Each rank's carve is capacity-bounded
// (three-index slices), so a rank outgrowing its carve reallocates
// privately and never touches a neighbour's storage.
func NewCollectors(n int, cfg *Config) []*Collector {
	cs := make([]Collector, n)
	sampleSeed := cfg.maxSamples()
	if sampleSeed > 24 {
		sampleSeed = 24
	}
	arrivalSeed := cfg.maxSamples() + 2
	if arrivalSeed > 26 {
		arrivalSeed = 26
	}
	sampleSlab := make([]Sample, n*sampleSeed)
	arrivalSlab := make([]uint64, n*arrivalSeed)
	out := make([]*Collector, n)
	iv := cfg.interval()
	for i := range cs {
		c := &cs[i]
		c.rank = i
		c.interval = iv
		c.invInterval = 1 / iv
		c.maxSamples = cfg.maxSamples()
		c.observer = cfg.Observer
		c.nextK = 1
		c.nextT = iv
		c.arrLast = math.NaN()
		c.samples = sampleSlab[i*sampleSeed : i*sampleSeed : (i+1)*sampleSeed]
		c.arrivals = arrivalSlab[i*arrivalSeed : i*arrivalSeed : (i+1)*arrivalSeed]
		out[i] = c
	}
	return out
}

// Rank returns the rank this collector belongs to.
func (c *Collector) Rank() int { return c.rank }

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
// accumulators, never a change to the runtime's own numbers. The
// common no-boundary case is a single compare and add (small enough to
// inline into the runtime's charge sites); cur.T is deliberately not
// maintained here — boundary crossings set it, and the run stamps the
// final clock via Finish.
func (c *Collector) Advance(t0, t1 float64, kind ChargeKind) {
	if t1 < c.nextT {
		c.charge(t1-t0, kind)
		return
	}
	c.advanceSlow(t0, t1, kind)
}

// AdvanceCompute, AdvanceComm and AdvanceWait are Advance with the kind
// fixed at the call site. The runtime's charge paths use them: with the
// kind constant the fast path compiles to one compare and one direct
// field add, with no per-kind indirection to load.

// AdvanceCompute is Advance with ChargeCompute.
//
//perf:inline
//perf:noescape
func (c *Collector) AdvanceCompute(t0, t1 float64) {
	if t1 < c.nextT {
		c.cur.Compute += t1 - t0
		return
	}
	c.advanceSlow(t0, t1, ChargeCompute)
}

// AdvanceComm is Advance with ChargeComm.
//
//perf:inline
//perf:noescape
func (c *Collector) AdvanceComm(t0, t1 float64) {
	if t1 < c.nextT {
		c.cur.Comm += t1 - t0
		return
	}
	c.advanceSlow(t0, t1, ChargeComm)
}

// AdvanceWait is Advance with ChargeWait.
//
//perf:inline
//perf:noescape
func (c *Collector) AdvanceWait(t0, t1 float64) {
	if t1 < c.nextT {
		c.cur.Wait += t1 - t0
		return
	}
	c.advanceSlow(t0, t1, ChargeWait)
}

// Finish stamps the rank's final virtual clock on the cumulative
// totals. Call once when the rank completes (or dies).
//
//perf:inline
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
	if c.samples == nil {
		// Seed a useful capacity so short series don't churn the GC
		// through the small append-doubling steps.
		seed := c.maxSamples
		if seed > 24 {
			seed = 24
		}
		c.samples = make([]Sample, 0, seed)
	}
	c.samples = append(c.samples, s)
	if c.observer != nil {
		c.observer(c.rank, s)
	}
}

// Sent records one outgoing message.
//
//perf:inline
//perf:noescape
func (c *Collector) Sent(bytes int) {
	c.cur.MsgsSent++
	c.cur.BytesSent += uint64(bytes)
}

// Received records one completed receive and the received message's
// virtual arrival time. Receives are counted at the virtual time the
// receive overhead finished charging, which is always >= the arrival —
// mailbox depth can therefore never go negative. Arrivals cluster at
// identical virtual timestamps (collective phases deliver whole waves
// at one clock value), so the previous arrival's bucket counter is
// cached keyed by the exact arrival time: the repeat case is one
// equality compare and an add, small enough to inline at the runtime's
// receive sites (perfgate holds it to the inliner budget).
//
//perf:inline
//perf:noescape
func (c *Collector) Received(bytes uint64, arrival float64) {
	c.cur.MsgsRecv++
	c.cur.BytesRecv += bytes
	if arrival == c.arrLast {
		*c.arrPtr++
	} else {
		c.receivedSlow(arrival)
	}
}

// receivedSlow buckets an arrival that differs from the cached arrival
// time and refreshes the cache. The cache is only ever set to a bucket
// the arrivals array already covers, so the fast path needs no length
// check beyond the compiler's own.
func (c *Collector) receivedSlow(arrival float64) {
	b := c.bucketOf(arrival)
	if b > c.maxSamples {
		// Beyond every storable sample point; one overflow bucket bounds
		// the storage regardless of how far arrivals outrun the cap.
		b = c.maxSamples + 1
	}
	if len(c.arrivals) <= b {
		if cap(c.arrivals) <= b {
			// Arrival buckets fill roughly in clock order, so growing one
			// bucket at a time would reallocate on every boundary; seed a
			// useful capacity up front (mirroring the samples seed) and
			// double from there.
			capacity := 2 * (b + 1)
			if seed := c.maxSamples + 2; seed > capacity {
				if seed > 26 {
					seed = 26
				}
				if seed > capacity {
					capacity = seed
				}
			}
			grown := make([]uint64, b+1, capacity)
			copy(grown, c.arrivals)
			c.arrivals = grown
		} else {
			c.arrivals = c.arrivals[:b+1] // extension was zeroed by make
		}
	}
	c.arrivals[b]++
	// Cache the bucket's counter keyed by the exact arrival time: a
	// repeat of the same virtual timestamp lands in the same bucket by
	// construction, so the fast path needs no edge arithmetic at all.
	c.arrPtr = &c.arrivals[b]
	c.arrLast = arrival
}

// Collective records entry into an outermost collective operation.
//
//perf:inline
func (c *Collector) Collective() { c.cur.Collectives++ }

// Totals returns the cumulative counters at the rank's final clock.
func (c *Collector) Totals() Sample { return c.cur }
