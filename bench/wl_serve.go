package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
	"cpx/internal/perfmodel"
	"cpx/internal/serve"
)

// Fixed sizes of one serve-mix iteration. The seed draws seed offsets,
// request order and the sweep axis, never these.
const (
	serveClients    = 2 // closed loop: each sends its next request when the last one returned
	serveOffsets    = 16
	serveWarm       = 20_000
	serveAllocates  = 400
	serveFits       = 400
	serveComponents = 20
	serveBudget     = 40_000
	sweepPoints     = 32
	sweepCached     = 8
	tmpRoot         = ".bench_tmp" // inside the checkout; see .gitignore
)

// serveTemplates are the three /v1/simulate scenarios of the cold phase.
var serveTemplates = []struct {
	name string
	spec serve.SimSpec
}{
	// The cpxsim -demo scenario (cmd/cpxsim/main.go demoConfig), which a
	// main package cannot export.
	{"demo", serve.SimSpec{
		DensitySteps: 4, RotationPerStep: 0.002,
		Instances: []serve.InstanceSpec{
			{Name: "compressor", Kind: "mgcfd", MeshCells: 100_000, Ranks: 8, Seed: 1},
			{Name: "combustor", Kind: "simpic", MeshCells: 28_000_000, Ranks: 8, Seed: 2},
			{Name: "turbine", Kind: "mgcfd", MeshCells: 100_000, Ranks: 8, Seed: 3},
		},
		Units: []serve.UnitSpec{
			{Name: "hpc-comb", A: 0, BIdx: 1, Kind: "steady", Points: 50_000, Ranks: 2, Search: "prefetch", ExchangeEvery: 2},
			{Name: "comb-hpt", A: 1, BIdx: 2, Kind: "steady", Points: 50_000, Ranks: 2, Search: "prefetch", ExchangeEvery: 2},
		},
	}},
	{"sliding", serve.SimSpec{
		DensitySteps: 10, RotationPerStep: 0.002,
		Instances: []serve.InstanceSpec{
			{Name: "rowA", Kind: "mgcfd", MeshCells: 8_000_000, Ranks: 24, Seed: 1},
			{Name: "rowB", Kind: "mgcfd", MeshCells: 8_000_000, Ranks: 24, Seed: 2},
		},
		Units: []serve.UnitSpec{
			{Name: "slide", A: 0, BIdx: 1, Kind: "sliding", Ranks: 8, Search: "prefetch", ExchangeEvery: 1,
				Points: mesh.InterfaceCells(mesh.CubeDims(8_000_000), coupler.SlidingFraction)},
		},
	}},
	{"particle", serve.SimSpec{
		DensitySteps: 10, RotationPerStep: 0.002,
		Instances: []serve.InstanceSpec{
			{Name: "flow", Kind: "mgcfd", MeshCells: 8_000_000, Ranks: 16, Seed: 1},
			{Name: "spray", Kind: "particle", MeshCells: 8_000_000, Ranks: 16, Seed: 3, Strategy: "steal"},
		},
		Units: []serve.UnitSpec{
			{Name: "spray-cu", A: 0, BIdx: 1, Kind: "steady", Points: 20_000, Ranks: 4, Search: "tree", ExchangeEvery: 1},
		},
	}},
}

const (
	tmplDemo    = 0
	tmplSliding = 1
)

// coldReq is one distinct /v1/simulate request.
type coldReq struct {
	template int
	offset   int64
	body     []byte
}

// serveInputs is everything one iteration sends, drawn before timing.
type serveInputs struct {
	offsets      []int64 // offsets[0] is the run's reference offset
	cold         []coldReq
	warmOrder    []int32 // indices into cold
	model        []modelReq
	sweepOffsets []int64
	sweepBody    []byte
}

type modelReq struct {
	path string
	body []byte
}

// serveIter is what one iteration measured, client side.
type serveIter struct {
	coldMs     [][]float64 // by template
	warmUs     []float64
	allocMs    []float64
	fitMs      []float64
	diskUs     []float64
	sweepFirst float64 // ms
	sweepTotal float64 // s
	hitRatio   float64
	rejected   float64
	digest     uint32 // fold of every cold artifact
	elapsed    float64
	ranks      int
}

func (si *serveIter) coldAll() []float64 {
	var all []float64
	for _, t := range si.coldMs {
		all = append(all, t...)
	}
	return all
}

// serveWL drives an in-process cpxserve over loopback HTTP with two
// closed-loop keep-alive clients through five phases: cold (distinct
// simulations), warm (replays), model (analytic endpoints), sweep
// (batch with partial overlap) and disk (a second server on the same
// cache directory).
type serveWL struct {
	refOffset  int64
	refElapsed float64 // demo at refOffset, run directly through the library
	inputs     []serveInputs
	iters      []serveIter
}

func simulateBody(template int, offset int64) []byte {
	b, err := json.Marshal(serve.SimulateRequest{SimSpec: serveTemplates[template].spec, SeedOffset: offset})
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// distinctOffsets draws n distinct seed offsets, none in taken.
func distinctOffsets(rng *rand.Rand, n int, taken map[int64]bool) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		v := 1 + rng.Int63n(100_000)
		if !taken[v] {
			taken[v] = true
			out = append(out, v)
		}
	}
	return out
}

// syntheticSamples are PE samples off a known curve, as the cpxmodel
// demo builds them, so every fit succeeds.
func syntheticSamples(rng *rand.Rand) []serve.SampleSpec {
	truth := perfmodel.Curve{BaseCores: 100, BaseTime: 20 + 400*rng.Float64(), P50: 1500 + 8000*rng.Float64(), K: 1 + rng.Float64()}
	var out []serve.SampleSpec
	for _, p := range []int{100, 200, 400, 800, 1600, 3200} {
		out = append(out, serve.SampleSpec{Cores: p, Runtime: truth.Runtime(float64(p))})
	}
	return out
}

func (w *serveWL) genInputs(seed int64, it int) serveInputs {
	rng := substream(seed, "serve-mix/inputs", it)
	in := serveInputs{}
	taken := map[int64]bool{w.refOffset: true}
	in.offsets = append([]int64{w.refOffset}, distinctOffsets(rng, serveOffsets-1, taken)...)
	for t := range serveTemplates {
		for _, off := range in.offsets {
			in.cold = append(in.cold, coldReq{template: t, offset: off, body: simulateBody(t, off)})
		}
	}
	rng.Shuffle(len(in.cold), func(a, b int) { in.cold[a], in.cold[b] = in.cold[b], in.cold[a] })
	in.warmOrder = make([]int32, serveWarm)
	for i := range in.warmOrder {
		in.warmOrder[i] = int32(rng.Intn(len(in.cold)))
	}

	comps := make([]serve.ComponentSpec, serveComponents)
	for i := range comps {
		comps[i] = serve.ComponentSpec{Name: fmt.Sprintf("component %02d", i), IsCU: i >= serveComponents-4,
			MinRanks: 100, Samples: syntheticSamples(rng)}
	}
	for _, d := range rng.Perm(serveAllocates) {
		body, _ := json.Marshal(serve.AllocateRequest{Budget: serveBudget - d, Components: comps})
		in.model = append(in.model, modelReq{"/v1/allocate", body})
	}
	for i := 0; i < serveFits; i++ {
		body, _ := json.Marshal(serve.FitRequest{Samples: syntheticSamples(rng)})
		in.model = append(in.model, modelReq{"/v1/fit", body})
	}
	rng.Shuffle(len(in.model), func(a, b int) { in.model[a], in.model[b] = in.model[b], in.model[a] })

	// The sweep axis: 8 offsets the cold phase already computed, 24 new.
	cached := append([]int64(nil), in.offsets...)
	rng.Shuffle(len(cached), func(a, b int) { cached[a], cached[b] = cached[b], cached[a] })
	in.sweepOffsets = append(cached[:sweepCached:sweepCached], distinctOffsets(rng, sweepPoints-sweepCached, taken)...)
	rng.Shuffle(len(in.sweepOffsets), func(a, b int) {
		in.sweepOffsets[a], in.sweepOffsets[b] = in.sweepOffsets[b], in.sweepOffsets[a]
	})
	in.sweepBody, _ = json.Marshal(serve.SweepRequest{
		Template: serve.SimulateRequest{SimSpec: serveTemplates[tmplSliding].spec},
		Axes:     serve.SweepAxes{SeedOffsets: in.sweepOffsets},
	})
	return in
}

// runDemoDirect runs the demo scenario through the library, as cpxsim
// does: the reference the served artifact must agree with.
func runDemoDirect(offset int64) (*coupler.Report, error) {
	spec := serveTemplates[tmplDemo].spec
	spec.Instances = append([]serve.InstanceSpec(nil), spec.Instances...)
	spec.ApplySeed(offset)
	sim, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return sim.RunContext(context.Background(), mpi.Config{Machine: cluster.ARCHER2()})
}

func (w *serveWL) Setup(seed int64) error {
	w.refOffset = 1 + substream(seed, "serve-mix/ref-offset", 0).Int63n(100_000)
	w.inputs = make([]serveInputs, maxIters+1)
	for it := range w.inputs {
		w.inputs[it] = w.genInputs(seed, it)
	}
	w.iters = make([]serveIter, maxIters+1)

	// Construct a server the way an iteration does, and warm up with the
	// one operation whose result the iterations need: the demo run
	// directly through the library.
	dir, err := serveTmpDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := startServer(dir)
	defer st.stop()
	first := w.inputs[0].model[0]
	if code, _, _, err := st.post(first.path, first.body); err != nil || code != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d, error %v", code, err)
	}
	rep, err := runDemoDirect(w.refOffset)
	if err != nil {
		return fmt.Errorf("warm-up demo run: %w", err)
	}
	w.refElapsed = rep.Elapsed
	return nil
}

func (w *serveWL) Inputs() any {
	type iterInputs struct {
		Offsets      []int64 `json:"seed_offsets"`
		SweepOffsets []int64 `json:"sweep_seed_offsets"`
		OrderDigest  uint32  `json:"request_order_digest"`
	}
	out := make([]iterInputs, len(w.inputs))
	for i, in := range w.inputs {
		d := uint32(0)
		for _, c := range in.cold {
			d = fold32(d, uint64(c.template), uint64(c.offset))
		}
		for _, o := range in.warmOrder {
			d = fold32(d, uint64(o))
		}
		out[i] = iterInputs{in.offsets, in.sweepOffsets, d}
	}
	return map[string]any{"reference_offset": w.refOffset, "sweep_template": serveTemplates[tmplSliding].name, "iterations": out}
}

func serveTmpDir() (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, "serve-")
}

// serverUnderTest is one serve.Server behind a loopback listener plus
// the keep-alive client the benchmark's clients share.
type serverUnderTest struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer(cacheDir string) *serverUnderTest {
	srv := serve.New(serve.Options{Workers: 2, CacheDir: cacheDir})
	return &serverUnderTest{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: serveClients, MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}},
	}
}

func (s *serverUnderTest) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

func (s *serverUnderTest) post(path string, body []byte) (code int, xcache string, out []byte, err error) {
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// closedLoop runs do(0..n-1) from serveClients goroutines, each taking
// the next index when its previous call returned.
func closedLoop(n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// timedPost sends one request and checks the reply: 200, the expected
// cache disposition and, when want is non-nil, the exact bytes. It
// returns the reply and the client-side latency in seconds.
func timedPost(s *serverUnderTest, ck *checks, what, path string, body []byte, wantCache string, want []byte) ([]byte, float64) {
	t0 := time.Now()
	code, xc, out, err := s.post(path, body)
	lat := time.Since(t0).Seconds()
	ck.check(err == nil && code == http.StatusOK && xc == wantCache && (want == nil || bytes.Equal(out, want)),
		"%s: status %d, X-Cache %q (want %q), %d bytes (want %d), error %v", what, code, xc, wantCache, len(out), len(want), err)
	return out, lat
}

var promLine = regexp.MustCompile(`(?m)^(cpxserve_[a-z_]+) (\d+)$`)

// scrapeCounters reads the unlabelled counters off /metrics.
func scrapeCounters(s *serverUnderTest) (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range promLine.FindAllStringSubmatch(string(text), -1) {
		out[m[1]], _ = strconv.ParseFloat(m[2], 64)
	}
	return out, nil
}

func (w *serveWL) Iterate(it int, tr *tracer, ck *checks) {
	in := &w.inputs[it]
	si := &w.iters[it]
	*si = serveIter{coldMs: make([][]float64, len(serveTemplates))}

	dir, err := serveTmpDir()
	if !ck.check(err == nil, "cache dir: %v", err) {
		return
	}
	defer os.RemoveAll(dir)
	s := startServer(dir)

	// cold: 48 distinct simulations, all misses.
	artifacts := make([][]byte, len(in.cold))
	coldLat := make([]float64, len(in.cold))
	phase, end := tr.span("serve.cold")
	closedLoop(len(in.cold), func(i int) {
		_, endReq := phase.span("serve.cold/" + serveTemplates[in.cold[i].template].name)
		artifacts[i], coldLat[i] = timedPost(s, ck, "cold simulate", "/v1/simulate", in.cold[i].body, "miss", nil)
		endReq()
	})
	end()
	for i, c := range in.cold {
		si.coldMs[c.template] = append(si.coldMs[c.template], 1e3*coldLat[i])
		h := fnv.New32a()
		h.Write(artifacts[i])
		si.digest = fold32(si.digest, uint64(h.Sum32()))
		var resp serve.SimulateResponse
		if !ck.check(json.Unmarshal(artifacts[i], &resp) == nil && resp.Elapsed > 0, "cold artifact %d does not decode", i) {
			continue
		}
		si.elapsed += resp.Elapsed
		si.ranks += resp.Ranks
		if c.template == tmplDemo && c.offset == w.refOffset {
			ck.check(resp.Elapsed == w.refElapsed, "served demo elapsed %v, direct library run %v", resp.Elapsed, w.refElapsed)
		}
	}

	// warm: replays, all memory hits, byte-equal to the cold artifact.
	si.warmUs = make([]float64, len(in.warmOrder))
	_, end = tr.span("serve.warm")
	closedLoop(len(in.warmOrder), func(i int) {
		c := in.warmOrder[i]
		_, lat := timedPost(s, ck, "warm replay", "/v1/simulate", in.cold[c].body, "hit", artifacts[c])
		si.warmUs[i] = 1e6 * lat
	})
	end()

	// model: distinct analytic requests, all misses.
	modelLat := make([]float64, len(in.model))
	phase, end = tr.span("serve.model")
	closedLoop(len(in.model), func(i int) {
		_, endReq := phase.span("serve.model" + in.model[i].path)
		_, modelLat[i] = timedPost(s, ck, in.model[i].path, in.model[i].path, in.model[i].body, "miss", nil)
		endReq()
	})
	end()
	for i, m := range in.model {
		if m.path == "/v1/allocate" {
			si.allocMs = append(si.allocMs, 1e3*modelLat[i])
		} else {
			si.fitMs = append(si.fitMs, 1e3*modelLat[i])
		}
	}

	// sweep: one batch; a quarter of its points are already cached.
	_, end = tr.span("serve.sweep")
	w.sweep(s, in, artifacts, si, ck)
	end()

	counters, err := scrapeCounters(s)
	if ck.check(err == nil, "/metrics: %v", err) {
		hits := counters["cpxserve_cache_hits_total"] + counters["cpxserve_cache_disk_hits_total"]
		all := hits + counters["cpxserve_cache_misses_total"] + counters["cpxserve_cache_joins_total"]
		si.hitRatio = hits / all
		si.rejected = counters["cpxserve_rejected_total"]
	}
	s.stop()

	// disk: a new server on the same directory serves the 48 bodies from
	// the persistent tier.
	s2 := startServer(dir)
	diskLat := make([]float64, len(in.cold))
	phase, end = tr.span("serve.disk")
	closedLoop(len(in.cold), func(i int) {
		_, endReq := phase.span("serve.disk/get")
		_, diskLat[i] = timedPost(s2, ck, "disk replay", "/v1/simulate", in.cold[i].body, "disk", artifacts[i])
		endReq()
	})
	end()
	for _, l := range diskLat {
		si.diskUs = append(si.diskUs, 1e6*l)
	}
	s2.stop()
}

// sweep posts the batch request and reads the NDJSON stream line by
// line: header, one line per point in completion order, trailer.
func (w *serveWL) sweep(s *serverUnderTest, in *serveInputs, artifacts [][]byte, si *serveIter, ck *checks) {
	cold := map[int64][]byte{} // sliding-template artifacts by offset
	for i, c := range in.cold {
		if c.template == tmplSliding {
			cold[c.offset] = artifacts[i]
		}
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/v1/sweep", "application/json", bytes.NewReader(in.sweepBody))
	if !ck.check(err == nil && resp.StatusCode == http.StatusOK, "sweep: error %v", err) {
		if err == nil {
			resp.Body.Close()
		}
		return
	}
	defer resp.Body.Close()
	type line struct {
		Index  *int            `json:"index"`
		Cache  string          `json:"cache"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
		Done   *struct {
			Points, Ok, Errors, Hits, Misses int
		} `json:"done"`
	}
	points, trailer := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var l line
		if !ck.check(json.Unmarshal(sc.Bytes(), &l) == nil, "sweep line does not parse: %.80s", sc.Bytes()) {
			continue
		}
		switch {
		case l.Index != nil:
			if points == 0 {
				si.sweepFirst = 1e3 * time.Since(t0).Seconds()
			}
			points++
			if !ck.check(*l.Index >= 0 && *l.Index < len(in.sweepOffsets) && l.Error == "", "sweep point %d: %s", *l.Index, l.Error) {
				continue
			}
			// A point the cold phase computed is a hit with the same bytes;
			// the rest are fresh computations.
			if want, ok := cold[in.sweepOffsets[*l.Index]]; ok {
				ck.check(l.Cache == "hit" && bytes.Equal(l.Result, want), "sweep point %d: cache %q, bytes differ from the cold artifact: %v",
					*l.Index, l.Cache, !bytes.Equal(l.Result, want))
			} else {
				ck.check(l.Cache == "miss" && len(l.Result) > 0, "sweep point %d: cache %q, %d bytes", *l.Index, l.Cache, len(l.Result))
			}
		case l.Done != nil:
			trailer = true
			ck.check(l.Done.Points == sweepPoints && l.Done.Ok == sweepPoints && l.Done.Errors == 0 &&
				l.Done.Hits == sweepCached && l.Done.Misses == sweepPoints-sweepCached, "sweep trailer %+v", *l.Done)
		}
	}
	si.sweepTotal = time.Since(t0).Seconds()
	ck.check(sc.Err() == nil && points == sweepPoints && trailer, "sweep stream: %d points, trailer %v, error %v", points, trailer, sc.Err())
}

func (w *serveWL) EndToEnd(ms *metricSet, n int, ck *checks) {
	var coldP50, warmP50, warmP95, sweepRate []float64
	for it := 0; it < n; it++ {
		si := &w.iters[it]
		coldP50 = append(coldP50, percentile(si.coldAll(), 50))
		warmP50 = append(warmP50, percentile(si.warmUs, 50))
		warmP95 = append(warmP95, percentile(si.warmUs, 95))
		if si.sweepTotal > 0 {
			sweepRate = append(sweepRate, sweepPoints/si.sweepTotal)
		}
	}
	// Each is the median over iterations of a figure taken over this
	// many requests per iteration.
	for _, m := range []struct {
		name    string
		samples []float64
		per     int
	}{
		{"cold_p50_ms", coldP50, len(serveTemplates) * serveOffsets},
		{"warm_p50_us", warmP50, serveWarm},
		{"warm_p95_us", warmP95, serveWarm},
		{"sweep_points_per_s", sweepRate, sweepPoints},
	} {
		ms.setMedianOf(m.name, m.samples, m.per*n)
	}
}

func (w *serveWL) PerLayer(ms *metricSet, it int, spans []Span, ck *checks) {
	si := &w.iters[it]
	for t, tmpl := range serveTemplates {
		ms.set("serve.cold_"+tmpl.name+"_p50_ms", percentile(si.coldMs[t], 50), len(si.coldMs[t]))
	}
	ms.set("serve.cold_p80_ms", percentile(si.coldAll(), 80), len(si.coldAll()))
	ms.set("serve.warm_p99_us", percentile(si.warmUs, 99), len(si.warmUs))
	ms.set("serve.warm_p999_us", percentile(si.warmUs, 99.9), len(si.warmUs))
	ms.set("serve.disk_hit_p50_us", percentile(si.diskUs, 50), len(si.diskUs))
	ms.set("serve.cache_hit_ratio", si.hitRatio, 1)
	ms.set("serve.allocate_p50_ms", percentile(si.allocMs, 50), len(si.allocMs))
	ms.set("serve.fit_p50_ms", percentile(si.fitMs, 50), len(si.fitMs))
	ms.set("serve.sweep_first_point_ms", si.sweepFirst, 1)
	ms.set("serve.sweep_total_s", si.sweepTotal, 1)
	ms.set("serve.rejected_429", si.rejected, 1)
	ms.set("virtual.elapsed_s", si.elapsed, len(w.inputs[it].cold))
	ms.set("virtual.digest32", float64(si.digest), len(w.inputs[it].cold))
	ms.set("virtual.ranks", float64(si.ranks), len(w.inputs[it].cold))

	// Probes of the request path with the socket, then the server, taken
	// away: the same warm request through Handler() and a recorder; the
	// decode + Build of a spec; the simulation behind a cold demo request
	// run directly.
	refBody := simulateBody(tmplDemo, w.refOffset)
	srv := serve.New(serve.Options{Workers: 2})
	defer srv.Close()
	serveOnce := func() int {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(refBody)))
		return rr.Code
	}
	ck.check(serveOnce() == http.StatusOK, "handler probe: cold request failed")
	const handlerCalls = 2000
	lat := make([]float64, handlerCalls)
	for i := range lat {
		t0 := time.Now()
		serveOnce()
		lat[i] = 1e6 * time.Since(t0).Seconds()
	}
	ms.set("serve.handler_warm_us", median(lat), handlerCalls)

	const buildCalls = 200
	build := medianOf(buildCalls, func() {
		var req serve.SimulateRequest
		if err := json.Unmarshal(refBody, &req); err == nil {
			_, _ = req.SimSpec.Build()
		}
	})
	ms.set("serve.spec_build_us", 1e6*build, buildCalls)

	const demoRuns = 5
	demo := medianOf(demoRuns, func() {
		rep, err := runDemoDirect(w.refOffset)
		ck.check(err == nil && rep.Elapsed == w.refElapsed, "direct demo run: %v", err)
	})
	ms.set("coupler.run_demo_ms", 1e3*demo, demoRuns)
	ms.set("serve.overhead_ms", percentile(si.coldMs[tmplDemo], 50)-1e3*demo, 1)
}
