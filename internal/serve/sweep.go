package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// maxSweepPoints bounds a single sweep's expanded grid. 4096 points at
// a few KiB of artifact each is well inside the default cache budget;
// anything larger should be split into multiple sweeps.
const maxSweepPoints = 4096

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
	// must be positive; scaled counts are clamped to at least 1, and a
	// count scaled above maxRanks rejects the sweep.
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
// derived simulation request and its canonical form. Points resolve
// under the /v1/simulate endpoint name, so they dedup against
// individual simulate calls (and against each other) through the same
// content-addressed cache.
type sweepJob struct {
	index     int
	params    SweepPoint
	simReq    SimulateRequest
	canonical []byte
}

// pointResult is one completed point, ready for its NDJSON line.
type pointResult struct {
	job *sweepJob
	result
	err error
}

// scaleCount scales a positive count, rounding to nearest and clamping
// to at least 1; non-positive counts pass through (0 means "unset" in
// the schema). It reports false when the product exceeds limit.
func scaleCount[T int | int64](v T, s float64, limit T) (T, bool) {
	if v <= 0 {
		return v, true
	}
	// The product is integral, so "< limit+1" is "<= limit"; for
	// math.MaxInt64, limit+1 rounds to 2^63, the first float the
	// conversion cannot hold.
	scaled := math.Round(float64(v) * s)
	if !(scaled < float64(limit)+1) {
		return 0, false
	}
	return max(T(scaled), 1), true
}

// scaleError names the axis, value and field of an overflowing scale.
func scaleError(axis string, s float64, what, name, field string, limit int64) error {
	return fmt.Errorf("axes.%s value %v takes %s %q field %q above %d", axis, s, what, name, field, limit)
}

// derivePoint applies one grid point's parameters to a deep copy of the
// template.
func derivePoint(t *SimulateRequest, p SweepPoint) (SimulateRequest, error) {
	d := *t
	d.Instances = append([]InstanceSpec(nil), t.Instances...)
	d.Units = append([]UnitSpec(nil), t.Units...)
	if p.SeedOffset != nil {
		d.SeedOffset = *p.SeedOffset
	}
	var ok bool
	if p.MeshScale != nil {
		for i := range d.Instances {
			is := &d.Instances[i]
			if is.MeshCells, ok = scaleCount(is.MeshCells, *p.MeshScale, math.MaxInt64); !ok {
				return d, scaleError("meshScales", *p.MeshScale, "instance", is.Name, "meshCells", math.MaxInt64)
			}
		}
	}
	if p.RankScale != nil {
		for i := range d.Instances {
			is := &d.Instances[i]
			if is.Ranks, ok = scaleCount(is.Ranks, *p.RankScale, maxRanks); !ok {
				return d, scaleError("rankScales", *p.RankScale, "instance", is.Name, "ranks", maxRanks)
			}
		}
		for i := range d.Units {
			us := &d.Units[i]
			if us.Ranks, ok = scaleCount(us.Ranks, *p.RankScale, maxRanks); !ok {
				return d, scaleError("rankScales", *p.RankScale, "unit", us.Name, "ranks", maxRanks)
			}
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
	return d, nil
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
						simReq, err := derivePoint(&req.Template, p)
						if err != nil {
							return nil, err
						}
						canonical, err := canonicalize(&simReq)
						if err != nil {
							return nil, err
						}
						jobs = append(jobs, sweepJob{index: len(jobs), params: p, simReq: simReq, canonical: canonical})
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

// handleSweep serves POST /v1/sweep: expand the grid, fan points out
// across the cache's workers (or shard set) with cross-request dedup
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
// every point is a child job, listed and retired like any other.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rq := s.admit(w, r, "/v1/sweep")
	defer rq.finish()
	jb := rq.job

	var req SweepRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		rq.fail(badRequest(err))
		return
	}
	// Validate the template once up front so an unbuildable scenario is
	// a 400 on the request, not an error on every point.
	if sim, err := req.Template.SimSpec.Build(); err != nil {
		rq.fail(badRequest(err))
		return
	} else if err := sim.Validate(); err != nil {
		rq.fail(badRequest(err))
		return
	}
	jobs, err := expandSweep(&req)
	if err != nil {
		rq.fail(badRequest(err))
		return
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		rq.fail(err)
		return
	}
	defer cancel()

	fl, ok := w.(http.Flusher)
	if !ok {
		rq.fail(fmt.Errorf("streaming unsupported"))
		return
	}

	jb.SetPoints(len(jobs))
	jb.Start()
	setHeaders(w, "application/x-ndjson", jb.ID(), "", "")
	fmt.Fprintf(w, "{\"sweep\":{\"jobId\":%q,\"points\":%d}}\n", jb.ID(), len(jobs))
	fl.Flush()

	// Fan out, every point a child registry job, at most two points per
	// worker outstanding: local points are still throttled by the cache's
	// workers, and forwarded points only wait on the network.
	children := make([]*Job, len(jobs))
	for i := range jobs {
		children[i] = s.registry.Create(jb.endpoint + "/point")
	}
	sem := make(chan struct{}, 2*s.opts.Workers)
	results := make(chan pointResult)
	for i := range jobs {
		go func(pj *sweepJob, child *Job) {
			sem <- struct{}{}
			defer func() { <-sem }()
			// A point resolves like a /v1/simulate request, but waits for
			// room (bounded by the request deadline) instead of failing on
			// a full queue, and a shard's non-200 answer is its error.
			res, err := s.resolve(ctx, child, "/v1/simulate", pj.canonical, true, s.simulateRunner(&pj.simReq))
			if err == nil {
				err = res.shardError()
			}
			code, state, _ := verdict(err)
			child.Finish(state, code, res.outcome, err)
			results <- pointResult{job: pj, result: res, err: err}
		}(&jobs[i], children[i])
	}

	errs := 0
	served := map[CacheOutcome]int{} // successful points by cache disposition
	for range jobs {
		res := <-results
		s.metrics.ObservePoint(res.outcome)
		pointJSON, merr := json.Marshal(res.job.params)
		if merr != nil {
			pointJSON = []byte("{}")
		}
		if res.err != nil {
			errs++
			errJSON, _ := json.Marshal(res.err.Error())
			fmt.Fprintf(w, "{\"index\":%d,\"point\":%s,\"error\":%s}\n", res.job.index, pointJSON, errJSON)
		} else {
			served[res.outcome]++
			shardField := ""
			if res.shard != "" {
				shardJSON, _ := json.Marshal(res.shard)
				shardField = ",\"shard\":" + string(shardJSON)
			}
			fmt.Fprintf(w, "{\"index\":%d,\"point\":%s,\"cache\":%q%s,\"result\":%s}\n",
				res.job.index, pointJSON, res.outcome, shardField, res.body)
		}
		jb.PointDone()
		fl.Flush()
	}
	if ctx.Err() != nil {
		rq.state, rq.err = JobCanceled, ctx.Err()
	} else if errs > 0 {
		rq.err = fmt.Errorf("%d of %d points failed", errs, len(jobs))
	}
	fmt.Fprintf(w, "{\"done\":{\"points\":%d,\"ok\":%d,\"errors\":%d,\"hits\":%d,\"joins\":%d,\"misses\":%d,\"disk\":%d}}\n",
		len(jobs), len(jobs)-errs, errs, served[OutcomeHit], served[OutcomeJoin], served[OutcomeMiss], served[OutcomeDisk])
	fl.Flush()
}
