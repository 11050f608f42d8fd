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

// maxRetainedJobs bounds the retired (finished and unpinned) jobs the
// registry keeps; the least recently finished or looked up goes first.
// Live and pinned jobs are never evicted.
const maxRetainedJobs = 1024

// Job is one request's registry entry: identity, lifecycle state, queue
// wait, cache disposition and live virtual-time progress. IDs are
// sequential per process — no clocks or randomness involved — so logs,
// traces and registry listings line up trivially.
type Job struct {
	id       string
	endpoint string
	seq      uint64
	reg      *Registry

	// vtBits is the max virtual time any rank of the job's simulation
	// has reached, as math.Float64bits, advanced by CAS from the
	// telemetry observer (many rank goroutines, no lock).
	vtBits atomic.Uint64
	// rev bumps on every observable change; the SSE poller uses it to
	// skip idle wakeups.
	rev atomic.Uint64

	// pointsTotal/pointsDone track batch progress for /v1/sweep jobs:
	// grid size and completed points. Zero for everything else.
	pointsTotal atomic.Int64
	pointsDone  atomic.Int64

	// pins counts holders protecting this entry from registry eviction,
	// and ended says Finish has run; both are guarded by reg.mu, as they
	// decide when the job retires.
	pins  int
	ended bool

	mu       sync.Mutex
	state    string
	outcome  CacheOutcome
	code     int
	errMsg   string
	created  time.Time
	started  time.Time
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

// Rev returns the current change revision.
func (j *Job) Rev() uint64 { return j.rev.Load() }

// Start marks the job running (compute has left the queue).
func (j *Job) Start() {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobRunning
		//lint:allow determinism queue-wait accounting measures host time by definition; nothing feeds the virtual clock
		j.started = time.Now()
	}
	j.mu.Unlock()
	j.rev.Add(1)
}

// ObserveProgress advances the job's virtual-time high-water mark. Safe
// for concurrent use from every rank goroutine of a simulation.
func (j *Job) ObserveProgress(t float64) {
	bits := math.Float64bits(t)
	for {
		old := j.vtBits.Load()
		if t <= math.Float64frombits(old) {
			return
		}
		if j.vtBits.CompareAndSwap(old, bits) {
			j.rev.Add(1)
			return
		}
	}
}

// SetPoints records a sweep job's grid size.
func (j *Job) SetPoints(total int) {
	j.pointsTotal.Store(int64(total))
	j.rev.Add(1)
}

// PointDone marks one sweep point complete.
func (j *Job) PointDone() {
	j.pointsDone.Add(1)
	j.rev.Add(1)
}

// Pin protects the job's registry entry from eviction (even once
// terminal) until a matching Unpin. A live sweep pins its child jobs so
// SSE watchers of a finished point never see the entry vanish while the
// sweep that spawned it is still streaming. Pinning a retired job takes
// it back out of the retired lru.
func (j *Job) Pin() {
	r := j.reg
	r.mu.Lock()
	j.pins++
	if j.pins == 1 && j.ended {
		r.retired.remove(j.id)
		r.jobs[j.id] = j
	}
	r.mu.Unlock()
}

// Unpin releases one Pin; the last retires a finished job.
func (j *Job) Unpin() {
	r := j.reg
	r.mu.Lock()
	if j.pins > 0 {
		j.pins--
		if j.pins == 0 && j.ended {
			r.retireLocked(j)
		}
	}
	r.mu.Unlock()
}

// Finish records the job's terminal state, HTTP code, cache disposition
// and error (if any), and closes Done.
func (j *Job) Finish(state string, code int, outcome CacheOutcome, err error) {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled || j.state == JobRejected {
		j.mu.Unlock()
		return
	}
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
	j.rev.Add(1)
	j.reg.finished(j, state)
	close(j.done)
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Endpoint:    j.endpoint,
		State:       j.state,
		VirtualTime: math.Float64frombits(j.vtBits.Load()),
		PointsTotal: j.pointsTotal.Load(),
		PointsDone:  j.pointsDone.Load(),
		Cache:       j.outcome,
		Code:        j.code,
		Error:       j.errMsg,
	}
	//lint:allow determinism live queue-wait/runtime readings measure host time by definition; nothing feeds the virtual clock
	now := time.Now()
	switch j.state {
	case JobQueued:
		v.QueueWait = now.Sub(j.created).Seconds()
	case JobRunning:
		v.QueueWait = j.started.Sub(j.created).Seconds()
		v.Runtime = now.Sub(j.started).Seconds()
	default:
		v.QueueWait = j.started.Sub(j.created).Seconds()
		v.Runtime = j.finished.Sub(j.started).Seconds()
	}
	return v
}

// Registry tracks every request's job for the /v1/jobs API. Live and
// pinned jobs are kept in one map; a job retires into an lru of
// maxRetainedJobs, each weighing 1, once it is finished and unpinned.
type Registry struct {
	seq    atomic.Uint64
	active atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*Job // live or pinned
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
	r.active.Add(1)
	r.mu.Lock()
	r.jobs[j.id] = j
	r.mu.Unlock()
	return j
}

// finished tallies a terminal state and retires j unless it is pinned.
func (r *Registry) finished(j *Job, state string) {
	r.active.Add(-1)
	r.mu.Lock()
	r.byState[state]++
	j.ended = true
	if j.pins == 0 {
		r.retireLocked(j)
	}
	r.mu.Unlock()
}

// retireLocked moves a finished, unpinned job into the retired lru.
func (r *Registry) retireLocked(j *Job) {
	delete(r.jobs, j.id)
	r.retired.put(j.id, j, 1)
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
func (r *Registry) Active() int { return int(r.active.Load()) }

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
	// Pin the entry for the watch duration: a terminal job being
	// streamed must stay resolvable (Registry.Get) even if a flood of
	// newer jobs would otherwise evict it mid-watch.
	jb.Pin()
	defer jb.Unpin()
	setHeaders(w, "text/event-stream", jb.ID(), "", "")
	w.Header().Set("Cache-Control", "no-store")

	send := func(event string) {
		data, _ := json.Marshal(jb.View())
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	send("progress")
	lastRev := jb.Rev()
	//lint:allow determinism the SSE poll cadence paces a host-facing event stream; nothing feeds the virtual clock
	ticker := time.NewTicker(ssePollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-jb.Done():
			send("done")
			return
		case <-ticker.C:
			if rev := jb.Rev(); rev != lastRev {
				lastRev = rev
				send("progress")
			}
		}
	}
}
