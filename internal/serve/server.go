package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/perfmodel"
	"cpx/internal/telemetry"
)

// maxBodyBytes bounds request bodies; a full-engine scenario is a few
// kilobytes, so 8 MiB is generous.
const maxBodyBytes = 8 << 20

// statusClientClosed is nginx's convention for "client closed request"
// — the peer disconnected before the job finished. Recorded in the
// metrics; the response itself goes nowhere.
const statusClientClosed = 499

// maxTimeout caps a client's ?timeout= override.
const maxTimeout = 10 * time.Minute

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Machine is the cluster model simulations run against; defaults to
	// cluster.ARCHER2(). Fixed for the server's lifetime — the result
	// cache is per-process, so the machine is implicit in every key.
	Machine *cluster.Machine
	// Workers bounds concurrently running jobs (default 4; a coupled
	// simulation already fans out into one goroutine per rank).
	Workers int
	// QueueLen bounds admitted-but-unstarted jobs (default 16). A full
	// queue answers 429 + Retry-After rather than buffering unboundedly.
	QueueLen int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 60s); a client's ?timeout= override is capped at
	// maxTimeout.
	DefaultTimeout time.Duration
	// Logger receives the structured request/job log. Defaults to a
	// discard logger so embedding the server stays quiet; cmd/cpxserve
	// passes a real one.
	Logger *slog.Logger
	// ProgressInterval is the virtual-time sampling period used to feed
	// job progress for /v1/simulate (default telemetry.DefaultInterval).
	ProgressInterval float64
	// CacheMaxBytes bounds the in-memory artifact tier (default 256 MiB);
	// least-recently-used artifacts are evicted beyond it.
	CacheMaxBytes int64
	// CacheDir enables the persistent disk tier under the memory cache:
	// content-addressed artifact files that survive restarts. Empty
	// disables the tier.
	CacheDir string
	// SweepWorkers bounds concurrently outstanding sweep points per
	// /v1/sweep request (default 2×Workers: local points are still
	// throttled by the worker pool, and forwarded points only wait on
	// the network).
	SweepWorkers int
	// Shards lists worker-process base URLs. When non-empty this server
	// runs as a front-end: /v1/simulate jobs (and sweep points) are
	// routed to shards by consistent hashing of the canonical cache key,
	// with degraded-mode local execution when shards are down.
	Shards []string
	// ShardProbeInterval paces the shard health prober (default 2s).
	ShardProbeInterval time.Duration
}

func (o *Options) fill() {
	if o.Machine == nil {
		o.Machine = cluster.ARCHER2()
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 16
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = 2 * o.Workers
	}
}

// Server is the cpxserve request layer: a mux over the model and
// simulation endpoints, backed by the worker pool and the
// content-addressed cache. Create with New, expose via Handler, and
// Close after the HTTP listener has shut down to drain the pool.
type Server struct {
	opts     Options
	pool     *Pool
	cache    *Cache
	metrics  *Metrics
	registry *Registry
	shards   *ShardSet // nil unless running as a sharded front-end
	log      *slog.Logger
	mux      *http.ServeMux
}

// New builds a Server with its pool, cache, registry, metrics and
// routes.
func New(opts Options) *Server {
	opts.fill()
	var disk *DiskCache
	if opts.CacheDir != "" {
		var err error
		disk, err = NewDiskCache(opts.CacheDir)
		if err != nil {
			// The disk tier is an optimisation; a server that cannot open
			// it still serves correctly from memory.
			opts.Logger.Error("disk cache disabled", "dir", opts.CacheDir, "error", err)
		}
	}
	s := &Server{
		opts:     opts,
		cache:    NewCache(CacheConfig{MaxBytes: opts.CacheMaxBytes, Disk: disk}),
		registry: NewRegistry(),
		log:      opts.Logger,
	}
	if len(opts.Shards) > 0 {
		ss, err := NewShardSet(opts.Shards, opts.ShardProbeInterval, opts.Logger)
		if err != nil {
			opts.Logger.Error("shard routing disabled", "error", err)
		} else {
			s.shards = ss
		}
	}
	s.pool = NewPool(opts.Workers, opts.QueueLen)
	s.metrics = NewMetrics(s.pool.Depth, s.pool.Capacity, s.cache.Len)
	s.metrics.AttachRegistry(s.registry)
	s.metrics.AttachCache(s.cache)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/fit", s.post("/v1/fit", s.runFit))
	s.mux.HandleFunc("POST /v1/allocate", s.post("/v1/allocate", s.runAllocate))
	s.mux.HandleFunc("POST /v1/speedup", s.post("/v1/speedup", s.runSpeedup))
	s.mux.HandleFunc("POST /v1/simulate", s.post("/v1/simulate", s.runSimulate))
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	return s
}

// Registry exposes the job registry (for tests).
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool: queued and running jobs finish, new
// submissions are rejected. Call after http.Server.Shutdown has
// stopped accepting requests.
func (s *Server) Close() {
	if s.shards != nil {
		s.shards.Close()
	}
	s.pool.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	setHeaders(w, "application/json", "", "", "")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"queueDepth\":%d,\"cacheEntries\":%d}\n", s.pool.Depth(), s.cache.Len())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	setHeaders(w, "text/plain; version=0.0.4", "", "", "")
	s.metrics.WritePrometheus(w)
}

// setHeaders is the one place the service's response headers are
// written: the body's media type, the job the response belongs to, how
// the cache satisfied it and which shard answered. Empty values are
// omitted, except that a shard's answer carries the shard's X-Cache as
// received — empty on its error responses.
func setHeaders(w http.ResponseWriter, contentType, jobID string, outcome CacheOutcome, shard string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	if outcome != "" || shard != "" {
		h.Set("X-Cache", string(outcome))
	}
	if shard != "" {
		h.Set("X-Shard", shard)
	}
	if jobID != "" {
		h.Set("X-Job-ID", jobID)
	}
}

// jsonError writes a structured error body carrying the job ID, so
// every failure — including backpressure 429s — is correlatable with
// the registry, logs and metrics.
func jsonError(w http.ResponseWriter, status int, jobID string, err error) {
	setHeaders(w, "application/json", jobID, "", "")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error  string `json:"error"`
		JobID  string `json:"jobId,omitempty"`
		Status int    `json:"status"`
	}{err.Error(), jobID, status})
}

// badRequestError marks errors caused by the request content (bad
// spec, unfittable samples, invalid wiring) → 400 instead of 500.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return &badRequestError{err}
}

// verdict is the service's one error→status table: the HTTP status,
// terminal job state and client-facing message an error ends a job
// with. A request and a sweep point that fail the same way are recorded
// the same way.
func verdict(err error) (code int, state string, msg error) {
	var br *badRequestError
	switch {
	case err == nil:
		return http.StatusOK, JobDone, nil
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, JobRejected, errors.New("job queue full; retry later")
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, JobCanceled, errors.New("request deadline exceeded; the job was cancelled")
	case errors.Is(err, context.Canceled):
		return statusClientClosed, JobCanceled, errors.New("client closed request")
	case errors.As(err, &br):
		return http.StatusBadRequest, JobFailed, err
	default:
		return http.StatusInternalServerError, JobFailed, err
	}
}

// request is one admitted HTTP request: its registry job, its logger,
// and the terminal facts finish records. Handlers change those facts
// only through fail and reply (a sweep, whose 200 is already on the
// wire when points fail, sets state and err itself).
type request struct {
	s       *Server
	w       http.ResponseWriter
	job     *Job
	log     *slog.Logger
	start   time.Time
	code    int
	state   string
	outcome CacheOutcome
	err     error
}

// admit is the door every POST endpoint enters by: it bounds the body,
// creates the request's registry job and binds the logger. The caller
// defers finish.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) request {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	jb := s.registry.Create(endpoint)
	rq := request{
		s: s, w: w, job: jb,
		log: s.log.With("job", jb.ID(), "endpoint", endpoint),
		//lint:allow determinism request latency metrics measure host time by definition; nothing feeds the virtual clock
		start: time.Now(),
		code:  http.StatusOK,
		state: JobDone,
	}
	rq.log.Debug("job admitted")
	return rq
}

// finish closes the job, feeds the metrics and writes the one "job
// finished" log record.
func (rq *request) finish() {
	rq.job.Finish(rq.state, rq.code, rq.outcome, rq.err)
	//lint:allow determinism request latency metrics measure host time by definition; nothing feeds the virtual clock
	elapsed := time.Since(rq.start).Seconds()
	rq.s.metrics.Observe(rq.job.endpoint, rq.code, elapsed, rq.outcome)
	rq.log.Info("job finished", "state", rq.state, "code", rq.code, "cache", string(rq.outcome),
		"points", rq.job.pointsDone.Load(), "seconds", elapsed)
}

// fail ends the request with the status verdict assigns to err.
func (rq *request) fail(err error) {
	rq.code, rq.state, rq.err = verdict(err)
	if rq.code == http.StatusTooManyRequests {
		// The hint scales with how long the queue actually takes to
		// drain (EWMA of computed-job latency × queued jobs per
		// worker), so batch clients back off proportionally.
		ra := rq.s.metrics.RetryAfterSeconds(rq.s.pool.Depth(), rq.s.opts.Workers)
		rq.w.Header().Set("Retry-After", strconv.Itoa(ra))
	}
	jsonError(rq.w, rq.code, rq.job.ID(), rq.err)
}

// reply writes a resolved artifact. A shard's non-200 answer is relayed
// verbatim — status, body and cache disposition — and recorded as a
// failed job.
func (rq *request) reply(res result) {
	rq.outcome = res.outcome
	if err := res.shardError(); err != nil {
		rq.code, rq.state, rq.err = res.status, JobFailed, err
	}
	setHeaders(rq.w, "application/json", rq.job.ID(), res.outcome, res.shard)
	rq.w.WriteHeader(res.status)
	rq.w.Write(res.body)
}

// requestCtx derives the job-wait deadline: the client's ?timeout=
// (clamped to maxTimeout) or the server default, on top of the
// request's own cancellation (disconnects propagate).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.opts.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		pd, err := time.ParseDuration(v)
		if err != nil || pd <= 0 {
			return nil, nil, badRequest(fmt.Errorf("invalid timeout %q", v))
		}
		d = min(pd, maxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// result is what resolve found for one unit of work: the artifact (or,
// when status is not 200, the owning shard's own error body), how the
// cache satisfied it, and the shard that answered ("" when local).
type result struct {
	status  int
	body    []byte
	outcome CacheOutcome
	shard   string
}

// shardError describes a shard's non-200 answer; nil for an artifact.
func (res result) shardError() error {
	if res.status == http.StatusOK {
		return nil
	}
	return fmt.Errorf("shard %s answered %d: %s", res.shard, res.status, res.body)
}

// resolve is the one path from a canonical request to its artifact, for
// the four POST endpoints and every sweep point alike: the local memory
// tier if warm, else — on a sharded front-end, for simulations — the
// shard owning the cache key (warm shards stay warm; a transport
// failure degrades to the local path), else a local run through the
// content-addressed cache and the bounded pool. It never blocks on a
// full queue: ErrQueueFull is the caller's to answer or to wait out.
func (s *Server) resolve(ctx context.Context, jb *Job, endpoint string, canonical []byte, run func(context.Context) (any, error)) (result, error) {
	key := cacheKey(endpoint, canonical)
	if s.shards != nil && endpoint == "/v1/simulate" {
		if body, ok := s.cache.Peek(key); ok {
			return result{status: http.StatusOK, body: body, outcome: OutcomeHit}, nil
		}
		if sh := s.shards.Route(key); sh != nil {
			jb.Start()
			status, body, oc, err := s.shards.Forward(ctx, sh, endpoint, canonical)
			if err == nil {
				return result{status: status, body: body, outcome: oc, shard: sh.URL}, nil
			}
			if ctx.Err() != nil {
				return result{}, ctx.Err()
			}
			s.log.Warn("shard forward failed; running locally",
				"job", jb.ID(), "endpoint", jb.endpoint, "shard", sh.URL, "error", err)
		}
	}
	body, oc, err := s.cache.Do(ctx, key, s.pool.TrySubmit, func(jobCtx context.Context) ([]byte, error) {
		jb.Start()
		s.log.Debug("job running", "job", jb.ID(), "endpoint", jb.endpoint)
		out, err := run(jobCtx)
		if err != nil {
			return nil, err
		}
		return canonicalize(out)
	})
	return result{status: http.StatusOK, body: body, outcome: oc}, err
}

// endpointFunc decodes one endpoint's spec from the body and returns
// the computation to run for it. Decode errors surface before any pool
// or cache interaction. The job is the request's registry entry, for
// endpoints that report live progress.
type endpointFunc func(r *http.Request, jb *Job) (spec any, run func(ctx context.Context) (any, error), err error)

// post serves an endpoint through the shared path: admit, strict
// decode, canonicalise, deadline, resolve. Its policy on the two
// outcomes callers may treat differently: a full queue is answered 429
// (via fail), and a shard's non-200 is relayed (via reply).
func (s *Server) post(endpoint string, ep endpointFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rq := s.admit(w, r, endpoint)
		defer rq.finish()
		spec, run, err := ep(r, rq.job)
		if err != nil {
			rq.fail(badRequest(err))
			return
		}
		canonical, err := canonicalize(spec)
		if err != nil {
			rq.fail(err)
			return
		}
		ctx, cancel, err := s.requestCtx(r)
		if err != nil {
			rq.fail(err)
			return
		}
		defer cancel()
		res, err := s.resolve(ctx, rq.job, endpoint, canonical, run)
		if err != nil {
			rq.outcome = res.outcome
			rq.fail(err)
			return
		}
		rq.reply(res)
	}
}

func (s *Server) runFit(r *http.Request, _ *Job) (any, func(context.Context) (any, error), error) {
	var req FitRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, nil, err
	}
	return &req, func(context.Context) (any, error) {
		samples := make([]perfmodel.Sample, len(req.Samples))
		for i, sp := range req.Samples {
			samples[i] = perfmodel.Sample{Cores: sp.Cores, Runtime: sp.Runtime}
		}
		curve, err := perfmodel.FitCurve(samples)
		if err != nil {
			return nil, badRequest(err)
		}
		maxErr := 0.0
		for _, sp := range samples {
			if e := perfmodel.RelativeError(curve.Runtime(float64(sp.Cores)), sp.Runtime); e > maxErr {
				maxErr = e
			}
		}
		return &FitResponse{
			Curve: CurveSpec{
				BaseCores: curve.BaseCores, BaseTime: curve.BaseTime,
				P50: curve.P50, K: curve.K,
			},
			MaxRelErr: maxErr,
		}, nil
	}, nil
}

// allocateSpecs builds and allocates, shared by /v1/allocate and both
// halves of /v1/speedup.
func allocateSpecs(specs []ComponentSpec, budget int) (*perfmodel.Allocation, error) {
	if budget <= 0 {
		return nil, badRequest(fmt.Errorf("budget must be positive, got %d", budget))
	}
	comps, err := BuildComponents(specs)
	if err != nil {
		return nil, badRequest(err)
	}
	alloc, err := perfmodel.Allocate(comps, budget)
	if err != nil {
		return nil, badRequest(err)
	}
	return alloc, nil
}

func allocationResponse(budget int, alloc *perfmodel.Allocation) *AllocateResponse {
	resp := &AllocateResponse{
		Budget:      budget,
		Predicted:   alloc.Predicted,
		MaxApp:      alloc.MaxApp,
		MaxCU:       alloc.MaxCU,
		Unallocated: alloc.Unallocated,
	}
	for i, cp := range alloc.Components {
		resp.Components = append(resp.Components, AllocatedComponent{
			Name: cp.Name, IsCU: cp.IsCU, Cores: alloc.Cores[i], Time: alloc.Times[i],
		})
	}
	return resp
}

func (s *Server) runAllocate(r *http.Request, _ *Job) (any, func(context.Context) (any, error), error) {
	var req AllocateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, nil, err
	}
	return &req, func(context.Context) (any, error) {
		alloc, err := allocateSpecs(req.Components, req.Budget)
		if err != nil {
			return nil, err
		}
		return allocationResponse(req.Budget, alloc), nil
	}, nil
}

func (s *Server) runSpeedup(r *http.Request, _ *Job) (any, func(context.Context) (any, error), error) {
	var req SpeedupRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, nil, err
	}
	return &req, func(context.Context) (any, error) {
		base, err := allocateSpecs(req.Base, req.Budget)
		if err != nil {
			return nil, err
		}
		opt, err := allocateSpecs(req.Optimized, req.Budget)
		if err != nil {
			return nil, err
		}
		speedup := perfmodel.PredictSpeedup(base, opt)
		if math.IsInf(speedup, 0) || math.IsNaN(speedup) {
			return nil, badRequest(fmt.Errorf("degenerate speedup (optimized prediction is zero)"))
		}
		return &SpeedupResponse{
			Budget:             req.Budget,
			BasePredicted:      base.Predicted,
			OptimizedPredicted: opt.Predicted,
			Speedup:            speedup,
		}, nil
	}, nil
}

func (s *Server) runSimulate(r *http.Request, jb *Job) (any, func(context.Context) (any, error), error) {
	var req SimulateRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return nil, nil, err
	}
	return &req, s.simulateRunner(&req, jb), nil
}

// simulateRunner returns the computation for one simulation request,
// shared by POST /v1/simulate and every sweep point: build, validate,
// run under the job context, and feed live virtual-time progress into
// the registry entry.
func (s *Server) simulateRunner(reqp *SimulateRequest, jb *Job) func(context.Context) (any, error) {
	req := *reqp
	return func(jobCtx context.Context) (any, error) {
		spec := req.SimSpec // copy: ApplySeed must not mutate the cached spec
		spec.Instances = append([]InstanceSpec(nil), spec.Instances...)
		spec.ApplySeed(req.SeedOffset)
		sim, err := spec.Build()
		if err != nil {
			return nil, badRequest(err)
		}
		if err := sim.Validate(); err != nil {
			return nil, badRequest(err)
		}
		cfg := mpi.Config{Machine: s.opts.Machine}
		// Feed the job's live virtual-time progress from the metrics
		// sampler. Sampling never perturbs the simulation (clocks and
		// results stay bitwise identical), so cached artifacts are the
		// same with or without a watcher. Storage is kept minimal: the
		// progress feed needs the observer, not the series.
		cfg.Metrics = &telemetry.Config{
			Interval:   s.opts.ProgressInterval,
			MaxSamples: 1,
			Observer:   func(rank int, sm telemetry.Sample) { jb.ObserveProgress(sm.T) },
		}
		rep, err := sim.RunContext(jobCtx, cfg)
		if err != nil {
			return nil, err
		}
		resp := &SimulateResponse{
			Elapsed:       rep.Elapsed,
			DensitySteps:  rep.DensitySteps,
			Ranks:         sim.TotalRanks(),
			CouplingShare: rep.CouplingShare,
		}
		for i, is := range sim.Instances {
			resp.Instances = append(resp.Instances, ComponentTime{
				Name: is.Name, Time: rep.InstanceTime[i], Compute: rep.InstanceComp[i],
			})
		}
		for u, us := range sim.Units {
			resp.Units = append(resp.Units, ComponentTime{
				Name: us.Name, Time: rep.UnitTime[u], Compute: rep.UnitComp[u],
			})
		}
		for i, lr := range rep.ParticleLoads {
			if lr == nil {
				continue
			}
			resp.Particles = append(resp.Particles, ParticleLoadOut{
				Name: sim.Instances[i].Name, Strategy: lr.Strategy,
				Moved: lr.Moved, Stolen: lr.Stolen, Granted: lr.Granted,
				Repartitions:  lr.Repartitions,
				LastImbalance: lr.LastImbalance, PeakImbalance: lr.PeakImbalance,
			})
		}
		return resp, nil
	}
}
