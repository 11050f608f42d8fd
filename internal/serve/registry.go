package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Job states. A job is terminal in JobDone, JobFailed, JobCanceled or
// JobRejected; JobQueued and JobRunning are live.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
	JobRejected = "rejected"
)

// maxRetainedJobs bounds the finished jobs the registry keeps; the
// least recently finished or looked up goes first. Live jobs are never
// evicted.
const maxRetainedJobs = 1024

// Job is one request's registry entry: identity, lifecycle state, queue
// wait, cache disposition and live virtual-time progress. IDs are
// sequential per process — no clocks or randomness involved — so logs,
// traces and registry listings line up trivially. A request that
// computes locally records no progress of its own: until it finishes,
// its state and virtual time are those of the cache entry it started or
// joined, so every request waiting on one computation reads the same.
type Job struct {
	id       string
	endpoint string
	seq      uint64
	reg      *Registry
	created  time.Time // admission

	// pointsTotal/pointsDone track batch progress for /v1/sweep jobs:
	// grid size and completed points. Zero for everything else.
	pointsTotal atomic.Int64
	pointsDone  atomic.Int64

	mu sync.Mutex
	// comp is the computation the job waits on, attached by Cache.Do;
	// nil for a cache hit, a shard forward and a sweep. Finish freezes
	// what the job read from it into started and vt, and lets it go: a
	// retired job must not keep an evicted artifact reachable.
	comp     *job
	state    string
	started  time.Time
	vt       float64
	outcome  CacheOutcome
	code     int
	errMsg   string
	finished time.Time

	done chan struct{}
}

// JobView is the JSON snapshot of a job.
type JobView struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	State    string `json:"state"`
	// QueueWait is seconds between admission and compute start (or now,
	// while still queued).
	QueueWait float64 `json:"queue_wait_s"`
	// Runtime is seconds of computation so far (or total, when done).
	Runtime float64 `json:"run_s"`
	// VirtualTime is the furthest virtual time any rank of the job's
	// simulation has reached — monotone progress for /v1/simulate jobs,
	// zero for the analytic endpoints.
	VirtualTime float64 `json:"virtual_time_s"`
	// PointsTotal/PointsDone report batch progress for /v1/sweep jobs:
	// grid size and completed points (omitted elsewhere).
	PointsTotal int64        `json:"points_total,omitempty"`
	PointsDone  int64        `json:"points_done,omitempty"`
	Cache       CacheOutcome `json:"cache,omitempty"`
	Code        int          `json:"status_code,omitempty"`
	Error       string       `json:"error,omitempty"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Start marks running a job that has no local computation to view: a
// shard forward, or a sweep streaming its points.
func (j *Job) Start() {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobRunning
		//lint:allow determinism queue-wait accounting measures host time by definition; nothing feeds the virtual clock
		j.started = time.Now()
	}
	j.mu.Unlock()
}

// attach makes the job view the computation c until it finishes. Cache.Do
// calls it under the cache's mutex; a nil job (a cache used outside the
// server) views nothing.
func (j *Job) attach(c *job) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.comp = c
	j.mu.Unlock()
}

// SetPoints records a sweep job's grid size.
func (j *Job) SetPoints(total int) { j.pointsTotal.Store(int64(total)) }

// PointDone marks one sweep point complete.
func (j *Job) PointDone() { j.pointsDone.Add(1) }

// liveLocked reads the job's state, compute start and virtual time: its
// computation's while it has one. The caller holds j.mu.
func (j *Job) liveLocked() (state string, started time.Time, vt float64) {
	c := j.comp
	if c == nil {
		return j.state, j.started, j.vt
	}
	vt = math.Float64frombits(c.vtBits.Load())
	switch t := c.started.Load(); {
	case t == nil:
		return JobQueued, time.Time{}, vt
	case t.Before(j.created): // joined a running computation: no queue wait
		return JobRunning, j.created, vt
	default:
		return JobRunning, *t, vt
	}
}

// Finish records the job's terminal state, HTTP code, cache disposition
// and error (if any), freezes what it read from its computation, and
// closes Done. A finished job's record never changes again, even while
// the computation it joined runs on for other requests.
func (j *Job) Finish(state string, code int, outcome CacheOutcome, err error) {
	j.mu.Lock()
	if !j.finished.IsZero() {
		j.mu.Unlock()
		return
	}
	_, j.started, j.vt = j.liveLocked()
	j.comp = nil
	if j.started.IsZero() {
		j.started = j.created
	}
	j.state = state
	j.code = code
	j.outcome = outcome
	if err != nil {
		j.errMsg = err.Error()
	}
	//lint:allow determinism job runtime accounting measures host time by definition; nothing feeds the virtual clock
	j.finished = time.Now()
	j.mu.Unlock()
	j.reg.finished(j, state)
	close(j.done)
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	state, started, vt := j.liveLocked()
	v := JobView{
		ID:          j.id,
		Endpoint:    j.endpoint,
		State:       state,
		VirtualTime: vt,
		PointsTotal: j.pointsTotal.Load(),
		PointsDone:  j.pointsDone.Load(),
		Cache:       j.outcome,
		Code:        j.code,
		Error:       j.errMsg,
	}
	//lint:allow determinism live queue-wait/runtime readings measure host time by definition; nothing feeds the virtual clock
	now := time.Now()
	switch state {
	case JobQueued:
		v.QueueWait = now.Sub(j.created).Seconds()
	case JobRunning:
		v.QueueWait = started.Sub(j.created).Seconds()
		v.Runtime = now.Sub(started).Seconds()
	default:
		v.QueueWait = started.Sub(j.created).Seconds()
		v.Runtime = j.finished.Sub(started).Seconds()
	}
	return v
}

// Registry tracks every request's job for the /v1/jobs API. Live jobs
// are kept in one map; a job retires into an lru of maxRetainedJobs,
// each weighing 1, when it finishes.
type Registry struct {
	seq atomic.Uint64

	mu      sync.Mutex
	jobs    map[string]*Job // live
	retired *lru[*Job]

	byState map[string]uint64 // finished jobs by terminal state
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{jobs: make(map[string]*Job), retired: newLRU[*Job](maxRetainedJobs), byState: make(map[string]uint64)}
}

// Create admits a new job for an endpoint.
func (r *Registry) Create(endpoint string) *Job {
	seq := r.seq.Add(1)
	j := &Job{
		id:       fmt.Sprintf("j-%06d", seq),
		endpoint: endpoint,
		seq:      seq,
		reg:      r,
		state:    JobQueued,
		done:     make(chan struct{}),
	}
	//lint:allow determinism job admission timestamps measure host time by definition; nothing feeds the virtual clock
	j.created = time.Now()
	r.mu.Lock()
	r.jobs[j.id] = j
	r.mu.Unlock()
	return j
}

// finished tallies a terminal state and retires j.
func (r *Registry) finished(j *Job, state string) {
	r.mu.Lock()
	r.byState[state]++
	delete(r.jobs, j.id)
	r.retired.put(j.id, j, 1)
	r.mu.Unlock()
}

// Get returns a job by ID (nil when unknown or evicted). Looking up a
// retired job refreshes its retention.
func (r *Registry) Get(id string) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		return j
	}
	j, _ := r.retired.get(id)
	return j
}

// List snapshots every retained job in admission order.
func (r *Registry) List() []JobView {
	r.mu.Lock()
	jobs := slices.Collect(maps.Values(r.jobs))
	for el := r.retired.order.Front(); el != nil; el = el.Next() {
		jobs = append(jobs, el.Value.(*lruItem[*Job]).val)
	}
	r.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// Active counts live (queued or running) jobs.
func (r *Registry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// Retained counts registry entries.
func (r *Registry) Retained() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs) + len(r.retired.items)
}

// FinishedByState copies the terminal-state tallies.
func (r *Registry) FinishedByState() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.byState))
	for k, v := range r.byState {
		out[k] = v
	}
	return out
}

// ssePollInterval is how often the event stream re-snapshots a job.
const ssePollInterval = 50 * time.Millisecond

// handleJobs serves GET /v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	setHeaders(w, "application/json", "", "", "")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Jobs []JobView `json:"jobs"`
	}{s.registry.List()})
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb := s.registry.Get(r.PathValue("id"))
	if jb == nil {
		jsonError(w, http.StatusNotFound, "", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	setHeaders(w, "application/json", "", "", "")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(jb.View())
}

// handleJobEvents serves GET /v1/jobs/{id}/events as Server-Sent
// Events: an immediate snapshot, a "progress" event whenever the job
// changes (polled at ssePollInterval), and a terminal "done" event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	jb := s.registry.Get(r.PathValue("id"))
	if jb == nil {
		jsonError(w, http.StatusNotFound, "", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		jsonError(w, http.StatusInternalServerError, jb.ID(), fmt.Errorf("streaming unsupported"))
		return
	}
	setHeaders(w, "text/event-stream", jb.ID(), "", "")
	w.Header().Set("Cache-Control", "no-store")

	send := func(event string, v JobView) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	last := jb.View()
	send("progress", last)
	//lint:allow determinism the SSE poll cadence paces a host-facing event stream; nothing feeds the virtual clock
	ticker := time.NewTicker(ssePollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-jb.Done():
			send("done", jb.View())
			return
		case <-ticker.C:
			if v := jb.View(); v.progress() != last.progress() {
				last = v
				send("progress", v)
			}
		}
	}
}

// progress is what a progress event reports a change in: the view
// without the clocks that advance on every poll.
func (v JobView) progress() JobView {
	v.QueueWait, v.Runtime = 0, 0
	return v
}
