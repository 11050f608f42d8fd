package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"
)

// maxSweepPoints bounds a single sweep's expanded grid. 4096 points at
// a few KiB of artifact each is well inside the default cache budget;
// anything larger should be split into multiple sweeps.
const maxSweepPoints = 4096

// sweepRetryDelay paces resubmission of a sweep point that found the
// worker queue full. Sweeps absorb backpressure by waiting (bounded by
// the request deadline) instead of failing points with 429s.
const sweepRetryDelay = 5 * time.Millisecond

// SweepAxes are the parameter ranges of a sweep. The cross product of
// every non-empty axis is expanded server-side, in the fixed nesting
// order seedOffsets → meshScales → rankScales → densitySteps →
// strategies (innermost varies fastest), so point indices are
// deterministic.
type SweepAxes struct {
	// SeedOffsets enumerates setup seeds: each value replaces the
	// template's seedOffset (the cpxsim -seed semantics).
	SeedOffsets []int64 `json:"seedOffsets,omitempty"`
	// MeshScales multiplies every instance's meshCells (mesh-scale /
	// weak-scaling studies). Values must be positive.
	MeshScales []float64 `json:"meshScales,omitempty"`
	// RankScales multiplies every instance's and unit's rank count —
	// the core-budget axis of the paper's allocation studies. Values
	// must be positive; scaled counts are clamped to at least 1.
	RankScales []float64 `json:"rankScales,omitempty"`
	// DensitySteps enumerates outer-loop lengths, replacing the
	// template's densitySteps. Values must be positive.
	DensitySteps []int `json:"densitySteps,omitempty"`
	// Strategies enumerates particle load balancers ("static", "steal",
	// "repartition"), applied to every particle instance. Requires the
	// template to contain at least one particle instance.
	Strategies []string `json:"strategies,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a scenario template (the
// /v1/simulate schema) plus parameter ranges expanded into a grid.
type SweepRequest struct {
	Template SimulateRequest `json:"template"`
	Axes     SweepAxes       `json:"axes"`
}

// SweepPoint echoes the parameter values of one grid point. Fields from
// absent axes are omitted.
type SweepPoint struct {
	SeedOffset   *int64   `json:"seedOffset,omitempty"`
	MeshScale    *float64 `json:"meshScale,omitempty"`
	RankScale    *float64 `json:"rankScale,omitempty"`
	DensitySteps *int     `json:"densitySteps,omitempty"`
	Strategy     *string  `json:"strategy,omitempty"`
}

// sweepJob is one expanded grid point ready to run: its parameters, the
// derived simulation request, and the canonical form + cache key —
// computed with the /v1/simulate endpoint name, so sweep points dedup
// against individual simulate calls (and against each other) through
// the same content-addressed cache.
type sweepJob struct {
	index     int
	params    SweepPoint
	simReq    SimulateRequest
	canonical []byte
	key       string
}

// pointResult is one completed point, ready for its NDJSON line.
type pointResult struct {
	job     sweepJob
	body    []byte
	outcome CacheOutcome
	shard   string
	err     error
}

// scaleCount scales a positive count, rounding to nearest and clamping
// to at least 1; non-positive counts pass through (0 means "unset" in
// the schema).
func scaleCount[T int | int64](v T, s float64) T {
	if v <= 0 {
		return v
	}
	scaled := T(math.Round(float64(v) * s))
	if scaled < 1 {
		return 1
	}
	return scaled
}

// derivePoint applies one grid point's parameters to a deep copy of the
// template.
func derivePoint(t *SimulateRequest, p SweepPoint) SimulateRequest {
	d := *t
	d.Instances = append([]InstanceSpec(nil), t.Instances...)
	d.Units = append([]UnitSpec(nil), t.Units...)
	if p.SeedOffset != nil {
		d.SeedOffset = *p.SeedOffset
	}
	if p.MeshScale != nil {
		for i := range d.Instances {
			d.Instances[i].MeshCells = scaleCount(d.Instances[i].MeshCells, *p.MeshScale)
		}
	}
	if p.RankScale != nil {
		for i := range d.Instances {
			d.Instances[i].Ranks = scaleCount(d.Instances[i].Ranks, *p.RankScale)
		}
		for i := range d.Units {
			d.Units[i].Ranks = scaleCount(d.Units[i].Ranks, *p.RankScale)
		}
	}
	if p.DensitySteps != nil {
		d.DensitySteps = *p.DensitySteps
	}
	if p.Strategy != nil {
		for i := range d.Instances {
			if d.Instances[i].Kind == "particle" {
				d.Instances[i].Strategy = *p.Strategy
			}
		}
	}
	return d
}

// expandSweep validates the axes and expands the cross product into
// concrete points with their cache keys.
func expandSweep(req *SweepRequest) ([]sweepJob, error) {
	ax := &req.Axes
	for _, v := range ax.MeshScales {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("axes.meshScales values must be positive and finite, got %v", v)
		}
	}
	for _, v := range ax.RankScales {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("axes.rankScales values must be positive and finite, got %v", v)
		}
	}
	for _, v := range ax.DensitySteps {
		if v <= 0 {
			return nil, fmt.Errorf("axes.densitySteps values must be positive, got %d", v)
		}
	}
	if len(ax.Strategies) > 0 {
		hasParticle := false
		for _, is := range req.Template.Instances {
			if is.Kind == "particle" {
				hasParticle = true
			}
		}
		if !hasParticle {
			return nil, fmt.Errorf("axes.strategies requires a particle instance in the template")
		}
	}

	total := 1
	for _, n := range []int{
		len(ax.SeedOffsets), len(ax.MeshScales), len(ax.RankScales),
		len(ax.DensitySteps), len(ax.Strategies),
	} {
		if n == 0 {
			continue
		}
		total *= n
		if total > maxSweepPoints {
			return nil, fmt.Errorf("sweep grid exceeds %d points", maxSweepPoints)
		}
	}
	if total == 1 && len(ax.SeedOffsets)+len(ax.MeshScales)+len(ax.RankScales)+len(ax.DensitySteps)+len(ax.Strategies) == 0 {
		return nil, fmt.Errorf("axes are empty; give at least one parameter range")
	}

	// orNil iterates an axis, yielding one nil pass when it is absent.
	jobs := make([]sweepJob, 0, total)
	for _, so := range orNil(ax.SeedOffsets) {
		for _, ms := range orNil(ax.MeshScales) {
			for _, rs := range orNil(ax.RankScales) {
				for _, ds := range orNil(ax.DensitySteps) {
					for _, st := range orNil(ax.Strategies) {
						p := SweepPoint{SeedOffset: so, MeshScale: ms, RankScale: rs, DensitySteps: ds, Strategy: st}
						simReq := derivePoint(&req.Template, p)
						canonical, err := canonicalize(&simReq)
						if err != nil {
							return nil, err
						}
						jobs = append(jobs, sweepJob{
							index:     len(jobs),
							params:    p,
							simReq:    simReq,
							canonical: canonical,
							key:       cacheKey("/v1/simulate", canonical),
						})
					}
				}
			}
		}
	}
	return jobs, nil
}

// orNil yields pointers to an axis's values, or a single nil when the
// axis is absent (the template's value applies).
func orNil[T any](vals []T) []*T {
	if len(vals) == 0 {
		return []*T{nil}
	}
	out := make([]*T, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

// runPoint executes one sweep point: serve it from the local memory
// tier if warm, else route it to the shard owning its cache key (warm
// shards stay warm), else run it locally through the content-addressed
// cache — waiting out transient queue-full backpressure instead of
// failing the point.
func (s *Server) runPoint(ctx context.Context, pj *sweepJob, child *Job) ([]byte, CacheOutcome, string, error) {
	if s.shards != nil {
		if body, ok := s.cache.Peek(pj.key); ok {
			return body, OutcomeHit, "", nil
		}
		if sh := s.shards.Route(pj.key); sh != nil {
			child.Start()
			status, body, oc, err := s.shards.Forward(ctx, sh, "/v1/simulate", pj.canonical, "")
			if err == nil {
				if status != http.StatusOK {
					return nil, oc, sh.URL, fmt.Errorf("shard %s answered %d: %s", sh.URL, status, body)
				}
				return body, oc, sh.URL, nil
			}
			s.log.Warn("sweep point shard forward failed; running locally",
				"shard", sh.URL, "job", child.ID(), "error", err)
		}
	}
	run := s.simulateRunner(&pj.simReq, child)
	for {
		body, oc, err := s.cache.Do(ctx, pj.key, s.pool.TrySubmit, func(jobCtx context.Context) ([]byte, error) {
			child.Start()
			out, rerr := run(jobCtx)
			if rerr != nil {
				return nil, rerr
			}
			return canonicalize(out)
		})
		if errors.Is(err, ErrQueueFull) {
			select {
			case <-ctx.Done():
				return nil, oc, "", ctx.Err()
			//lint:allow determinism sweep backpressure pacing waits in host time by definition; nothing feeds the virtual clock
			case <-time.After(sweepRetryDelay):
			}
			continue
		}
		return body, oc, "", err
	}
}

// handleSweep serves POST /v1/sweep: expand the grid, fan points out
// across the worker pool (or shard set) with cross-request dedup
// through the content-addressed cache, and stream one NDJSON line per
// completed point. The response is
//
//	{"sweep": {"jobId": ..., "points": N}}            — header
//	{"index": i, "point": {...}, "cache": "hit",
//	 "shard": "...", "result": {...}}                 — per point, in
//	                                                    completion order
//	{"done": {...tallies...}}                         — trailer
//
// The sweep itself is a registry job whose points_total/points_done
// advance as points land (watchable over SSE at /v1/jobs/{id}/events);
// every point is a pinned child job, so watchers of a finished point
// never see its entry evicted while the sweep is live.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/sweep"
	//lint:allow determinism request latency metrics measure host time by definition; nothing feeds the virtual clock
	start := time.Now()
	jb := s.registry.Create(endpoint)
	log := s.log.With("job", jb.ID(), "endpoint", endpoint)
	code := http.StatusOK
	state := JobDone
	var reqErr error
	defer func() {
		jb.Finish(state, code, "", reqErr)
		//lint:allow determinism request latency metrics measure host time by definition; nothing feeds the virtual clock
		elapsed := time.Since(start).Seconds()
		s.metrics.Observe(endpoint, code, elapsed, "")
		log.Info("job finished", "state", state, "code", code,
			"points", jb.pointsDone.Load(), "seconds", elapsed)
	}()
	fail := func(status int, failState string, err error) {
		code = status
		state = failState
		reqErr = err
		s.jsonError(w, status, jb.ID(), err)
	}

	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req SweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		fail(http.StatusBadRequest, JobFailed, err)
		return
	}
	// Validate the template once up front so an unbuildable scenario is
	// a 400 on the request, not an error on every point.
	if sim, err := req.Template.SimSpec.Build(); err != nil {
		fail(http.StatusBadRequest, JobFailed, err)
		return
	} else if err := sim.Validate(); err != nil {
		fail(http.StatusBadRequest, JobFailed, err)
		return
	}
	jobs, err := expandSweep(&req)
	if err != nil {
		fail(http.StatusBadRequest, JobFailed, err)
		return
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		fail(http.StatusBadRequest, JobFailed, err)
		return
	}
	defer cancel()

	fl, ok := w.(http.Flusher)
	if !ok {
		fail(http.StatusInternalServerError, JobFailed, fmt.Errorf("streaming unsupported"))
		return
	}

	jb.SetPoints(len(jobs))
	jb.Start()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-ID", jb.ID())
	fmt.Fprintf(w, "{\"sweep\":{\"jobId\":%q,\"points\":%d}}\n", jb.ID(), len(jobs))
	fl.Flush()

	// Fan out, bounded by SweepWorkers. Every point gets a child
	// registry job, pinned for the sweep's lifetime so its entry stays
	// resolvable for watchers even once terminal.
	children := make([]*Job, len(jobs))
	for i := range jobs {
		children[i] = s.registry.Create(endpoint + "/point")
		children[i].Pin()
	}
	defer func() {
		for _, c := range children {
			c.Unpin()
		}
	}()

	sem := make(chan struct{}, s.opts.SweepWorkers)
	results := make(chan pointResult)
	for i := range jobs {
		go func(pj *sweepJob, child *Job) {
			sem <- struct{}{}
			defer func() { <-sem }()
			body, oc, shard, err := s.runPoint(ctx, pj, child)
			cstate, ccode := JobDone, http.StatusOK
			switch {
			case err == nil:
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				cstate, ccode = JobCanceled, http.StatusGatewayTimeout
			default:
				cstate, ccode = JobFailed, http.StatusInternalServerError
			}
			child.Finish(cstate, ccode, oc, err)
			results <- pointResult{job: *pj, body: body, outcome: oc, shard: shard, err: err}
		}(&jobs[i], children[i])
	}

	tally := struct {
		ok, errs                      int
		hits, joins, misses, diskHits int
	}{}
	for range jobs {
		res := <-results
		s.metrics.ObservePoint(res.outcome)
		pointJSON, merr := json.Marshal(res.job.params)
		if merr != nil {
			pointJSON = []byte("{}")
		}
		if res.err != nil {
			tally.errs++
			errJSON, _ := json.Marshal(res.err.Error())
			fmt.Fprintf(w, "{\"index\":%d,\"point\":%s,\"error\":%s}\n", res.job.index, pointJSON, errJSON)
		} else {
			tally.ok++
			switch res.outcome {
			case OutcomeHit:
				tally.hits++
			case OutcomeJoin:
				tally.joins++
			case OutcomeMiss:
				tally.misses++
			case OutcomeDisk:
				tally.diskHits++
			}
			if res.shard != "" {
				shardJSON, _ := json.Marshal(res.shard)
				fmt.Fprintf(w, "{\"index\":%d,\"point\":%s,\"cache\":%q,\"shard\":%s,\"result\":%s}\n",
					res.job.index, pointJSON, res.outcome, shardJSON, res.body)
			} else {
				fmt.Fprintf(w, "{\"index\":%d,\"point\":%s,\"cache\":%q,\"result\":%s}\n",
					res.job.index, pointJSON, res.outcome, res.body)
			}
		}
		jb.PointDone()
		fl.Flush()
	}
	if ctx.Err() != nil {
		state = JobCanceled
		reqErr = ctx.Err()
	} else if tally.errs > 0 {
		reqErr = fmt.Errorf("%d of %d points failed", tally.errs, len(jobs))
	}
	fmt.Fprintf(w, "{\"done\":{\"points\":%d,\"ok\":%d,\"errors\":%d,\"hits\":%d,\"joins\":%d,\"misses\":%d,\"disk\":%d}}\n",
		len(jobs), tally.ok, tally.errs, tally.hits, tally.joins, tally.misses, tally.diskHits)
	fl.Flush()
}
