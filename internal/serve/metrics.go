package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"cpx/internal/order"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning a
// cached lookup (~µs) to a long simulation job.
var latencyBuckets = [numBuckets]float64{
	0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60,
}

const numBuckets = 10

// histogram is a fixed-bucket latency histogram (cumulative counts at
// exposition time, per Prometheus convention).
type histogram struct {
	counts [numBuckets + 1]uint64 // last: +Inf overflow
	sum    float64
	total  uint64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// reqKey labels one requests_total series.
type reqKey struct {
	endpoint string
	code     int
}

// Metrics aggregates the service counters and renders them in the
// Prometheus text exposition format — hand-rolled, because the module
// is dependency-free by policy. All output is deterministically
// ordered (sorted label sets) so scrapes are diffable.
type Metrics struct {
	mu          sync.Mutex
	requests    map[reqKey]uint64
	latencies   map[string]*histogram
	hits        uint64
	misses      uint64
	joins       uint64
	diskHits    uint64
	canceled    uint64
	rejected    uint64
	sweepPoints uint64

	// jobEWMA is the exponentially-weighted moving average of computed
	// (cache-miss) job latency in seconds; the Retry-After hint scales
	// with it so batch clients back off proportionally to how long the
	// queue actually takes to drain.
	jobEWMA float64

	queueDepth    func() int
	queueCapacity func() int
	cacheLen      func() int
	registry      *Registry
	cache         *Cache
}

// NewMetrics returns a Metrics wired to the given gauges.
func NewMetrics(queueDepth, queueCapacity, cacheLen func() int) *Metrics {
	return &Metrics{
		requests:      make(map[reqKey]uint64),
		latencies:     make(map[string]*histogram),
		queueDepth:    queueDepth,
		queueCapacity: queueCapacity,
		cacheLen:      cacheLen,
	}
}

// AttachRegistry wires the job-registry gauges into the exposition.
func (m *Metrics) AttachRegistry(r *Registry) {
	m.mu.Lock()
	m.registry = r
	m.mu.Unlock()
}

// AttachCache wires the cache byte/eviction gauges into the exposition.
func (m *Metrics) AttachCache(c *Cache) {
	m.mu.Lock()
	m.cache = c
	m.mu.Unlock()
}

// ewmaAlpha weights the newest computed-job latency observation.
const ewmaAlpha = 0.2

// retryAfterMaxSeconds caps the backoff hint so a momentary latency
// spike cannot tell clients to go away for an hour.
const retryAfterMaxSeconds = 300

// Observe records one finished request.
func (m *Metrics) Observe(endpoint string, code int, seconds float64, outcome CacheOutcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	h := m.latencies[endpoint]
	if h == nil {
		h = &histogram{}
		m.latencies[endpoint] = h
	}
	h.observe(seconds)
	m.countOutcomeLocked(outcome)
	if outcome == OutcomeMiss && code == 200 {
		m.observeJobTimeLocked(seconds)
	}
	switch code {
	case 429:
		m.rejected++
	case 499, 504:
		m.canceled++
	}
}

// ObservePoint records one sweep point's cache disposition. Points are
// not HTTP requests (the whole sweep is one), but their hit/join/miss
// accounting must land in the same counters dedup tests and dashboards
// read.
func (m *Metrics) ObservePoint(outcome CacheOutcome) {
	m.mu.Lock()
	m.sweepPoints++
	m.countOutcomeLocked(outcome)
	m.mu.Unlock()
}

func (m *Metrics) countOutcomeLocked(outcome CacheOutcome) {
	switch outcome {
	case OutcomeHit:
		m.hits++
	case OutcomeMiss:
		m.misses++
	case OutcomeJoin:
		m.joins++
	case OutcomeDisk:
		m.diskHits++
	}
}

func (m *Metrics) observeJobTimeLocked(seconds float64) {
	if seconds <= 0 {
		return
	}
	if m.jobEWMA == 0 {
		m.jobEWMA = seconds
		return
	}
	m.jobEWMA = ewmaAlpha*seconds + (1-ewmaAlpha)*m.jobEWMA
}

// ObserveJobTime feeds one computed-job latency into the EWMA (exposed
// for tests; the request path feeds it through Observe).
func (m *Metrics) ObserveJobTime(seconds float64) {
	m.mu.Lock()
	m.observeJobTimeLocked(seconds)
	m.mu.Unlock()
}

// RetryAfterSeconds derives the 429 backoff hint from the queue state:
// a queue of depth jobs drains in about depth/workers EWMA periods, and
// the retrying client's own job takes one more. With no latency
// estimate yet the hint is the minimal 1s.
func (m *Metrics) RetryAfterSeconds(depth, workers int) int {
	m.mu.Lock()
	e := m.jobEWMA
	m.mu.Unlock()
	if e <= 0 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	wait := e * (float64(depth)/float64(workers) + 1)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	if secs > retryAfterMaxSeconds {
		secs = retryAfterMaxSeconds
	}
	return secs
}

// WritePrometheus renders the Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintln(w, "# HELP cpxserve_requests_total Finished HTTP requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE cpxserve_requests_total counter")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "cpxserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}
	fmt.Fprintln(w, "# HELP cpxserve_request_duration_seconds Request latency by endpoint.")
	fmt.Fprintln(w, "# TYPE cpxserve_request_duration_seconds histogram")
	for _, endpoint := range order.SortedKeys(m.latencies) {
		h := m.latencies[endpoint]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "cpxserve_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", endpoint, ub, cum)
		}
		fmt.Fprintf(w, "cpxserve_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, h.total)
		fmt.Fprintf(w, "cpxserve_request_duration_seconds_sum{endpoint=%q} %g\n", endpoint, h.sum)
		fmt.Fprintf(w, "cpxserve_request_duration_seconds_count{endpoint=%q} %d\n", endpoint, h.total)
	}
	fmt.Fprintln(w, "# HELP cpxserve_cache_hits_total Requests served from a completed artifact.")
	fmt.Fprintln(w, "# TYPE cpxserve_cache_hits_total counter")
	fmt.Fprintf(w, "cpxserve_cache_hits_total %d\n", m.hits)
	fmt.Fprintln(w, "# HELP cpxserve_cache_misses_total Requests that started a new computation.")
	fmt.Fprintln(w, "# TYPE cpxserve_cache_misses_total counter")
	fmt.Fprintf(w, "cpxserve_cache_misses_total %d\n", m.misses)
	fmt.Fprintln(w, "# HELP cpxserve_cache_joins_total Requests coalesced onto an identical in-flight job.")
	fmt.Fprintln(w, "# TYPE cpxserve_cache_joins_total counter")
	fmt.Fprintf(w, "cpxserve_cache_joins_total %d\n", m.joins)
	fmt.Fprintln(w, "# HELP cpxserve_cache_disk_hits_total Requests served from the persistent disk tier.")
	fmt.Fprintln(w, "# TYPE cpxserve_cache_disk_hits_total counter")
	fmt.Fprintf(w, "cpxserve_cache_disk_hits_total %d\n", m.diskHits)
	fmt.Fprintln(w, "# HELP cpxserve_sweep_points_total Sweep grid points processed (any cache disposition).")
	fmt.Fprintln(w, "# TYPE cpxserve_sweep_points_total counter")
	fmt.Fprintf(w, "cpxserve_sweep_points_total %d\n", m.sweepPoints)
	fmt.Fprintln(w, "# HELP cpxserve_rejected_total Requests rejected with 429 (queue full).")
	fmt.Fprintln(w, "# TYPE cpxserve_rejected_total counter")
	fmt.Fprintf(w, "cpxserve_rejected_total %d\n", m.rejected)
	fmt.Fprintln(w, "# HELP cpxserve_canceled_total Requests that timed out or were abandoned by the client.")
	fmt.Fprintln(w, "# TYPE cpxserve_canceled_total counter")
	fmt.Fprintf(w, "cpxserve_canceled_total %d\n", m.canceled)
	fmt.Fprintln(w, "# HELP cpxserve_queue_depth Jobs admitted but not yet running.")
	fmt.Fprintln(w, "# TYPE cpxserve_queue_depth gauge")
	fmt.Fprintf(w, "cpxserve_queue_depth %d\n", m.queueDepth())
	fmt.Fprintln(w, "# HELP cpxserve_queue_capacity Queue bound.")
	fmt.Fprintln(w, "# TYPE cpxserve_queue_capacity gauge")
	fmt.Fprintf(w, "cpxserve_queue_capacity %d\n", m.queueCapacity())
	fmt.Fprintln(w, "# HELP cpxserve_cache_entries Completed artifacts retained in memory.")
	fmt.Fprintln(w, "# TYPE cpxserve_cache_entries gauge")
	fmt.Fprintf(w, "cpxserve_cache_entries %d\n", m.cacheLen())
	if m.cache != nil {
		fmt.Fprintln(w, "# HELP cpxserve_cache_bytes Artifact bytes retained in the memory tier.")
		fmt.Fprintln(w, "# TYPE cpxserve_cache_bytes gauge")
		fmt.Fprintf(w, "cpxserve_cache_bytes %d\n", m.cache.Bytes())
		fmt.Fprintln(w, "# HELP cpxserve_cache_max_bytes Memory-tier byte budget.")
		fmt.Fprintln(w, "# TYPE cpxserve_cache_max_bytes gauge")
		fmt.Fprintf(w, "cpxserve_cache_max_bytes %d\n", m.cache.MaxBytes())
		fmt.Fprintln(w, "# HELP cpxserve_cache_evictions_total Artifacts evicted by the memory-tier LRU bound.")
		fmt.Fprintln(w, "# TYPE cpxserve_cache_evictions_total counter")
		fmt.Fprintf(w, "cpxserve_cache_evictions_total %d\n", m.cache.Evictions())
		if d := m.cache.Disk(); d != nil {
			puts, putErrs, hits, rejects := d.Stats()
			fmt.Fprintln(w, "# HELP cpxserve_disk_artifacts_written_total Artifacts published to the disk tier.")
			fmt.Fprintln(w, "# TYPE cpxserve_disk_artifacts_written_total counter")
			fmt.Fprintf(w, "cpxserve_disk_artifacts_written_total %d\n", puts)
			fmt.Fprintln(w, "# HELP cpxserve_disk_write_errors_total Failed disk-tier writes (best-effort; costs a recomputation).")
			fmt.Fprintln(w, "# TYPE cpxserve_disk_write_errors_total counter")
			fmt.Fprintf(w, "cpxserve_disk_write_errors_total %d\n", putErrs)
			fmt.Fprintln(w, "# HELP cpxserve_disk_reads_verified_total Disk-tier reads that passed sha256 verification.")
			fmt.Fprintln(w, "# TYPE cpxserve_disk_reads_verified_total counter")
			fmt.Fprintf(w, "cpxserve_disk_reads_verified_total %d\n", hits)
			fmt.Fprintln(w, "# HELP cpxserve_disk_rejects_total Corrupt disk artifacts rejected and deleted on read.")
			fmt.Fprintln(w, "# TYPE cpxserve_disk_rejects_total counter")
			fmt.Fprintf(w, "cpxserve_disk_rejects_total %d\n", rejects)
		}
	}
	if m.registry != nil {
		fmt.Fprintln(w, "# HELP cpxserve_jobs_active Jobs queued or running.")
		fmt.Fprintln(w, "# TYPE cpxserve_jobs_active gauge")
		fmt.Fprintf(w, "cpxserve_jobs_active %d\n", m.registry.Active())
		fmt.Fprintln(w, "# HELP cpxserve_jobs_retained Registry entries retained for /v1/jobs.")
		fmt.Fprintln(w, "# TYPE cpxserve_jobs_retained gauge")
		fmt.Fprintf(w, "cpxserve_jobs_retained %d\n", m.registry.Retained())
		fmt.Fprintln(w, "# HELP cpxserve_jobs_finished_total Jobs finished by terminal state.")
		fmt.Fprintln(w, "# TYPE cpxserve_jobs_finished_total counter")
		byState := m.registry.FinishedByState()
		for _, state := range order.SortedKeys(byState) {
			fmt.Fprintf(w, "cpxserve_jobs_finished_total{state=%q} %d\n", state, byState[state])
		}
	}
}
