package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// sweepTemplate is the scenario swept in these tests: the small coupled
// case from simBody, cheap enough to run hundreds of points.
const sweepTemplate = `{
    "densitySteps": 3,
    "rotationPerStep": 0.001,
    "instances": [
      {"name": "row1", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 1},
      {"name": "row2", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 2}
    ],
    "units": [
      {"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 2000, "ranks": 2, "search": "tree"}
    ]
  }`

// sweepLine is one decoded NDJSON line of a /v1/sweep response.
type sweepLine struct {
	Sweep *struct {
		JobID  string `json:"jobId"`
		Points int    `json:"points"`
	} `json:"sweep"`
	Index  *int            `json:"index"`
	Point  json.RawMessage `json:"point"`
	Cache  string          `json:"cache"`
	Shard  string          `json:"shard"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
	Done   *struct {
		Points int `json:"points"`
		OK     int `json:"ok"`
		Errors int `json:"errors"`
		Hits   int `json:"hits"`
		Joins  int `json:"joins"`
		Misses int `json:"misses"`
		Disk   int `json:"disk"`
	} `json:"done"`
}

// postSweep runs one sweep and decodes the stream: header, per-point
// lines indexed by grid position, trailer.
func postSweep(t *testing.T, url, body string) (jobID string, points []sweepLine, done sweepLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := json.Marshal(resp.Header)
		t.Fatalf("sweep status %d (headers %s)", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	for sc.Scan() {
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Sweep != nil:
			jobID = line.Sweep.JobID
			points = make([]sweepLine, line.Sweep.Points)
		case line.Index != nil:
			if points == nil || *line.Index < 0 || *line.Index >= len(points) {
				t.Fatalf("point line before header or out of range: %q", sc.Text())
			}
			points[*line.Index] = line
		case line.Done != nil:
			done = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if jobID == "" || done.Done == nil {
		t.Fatal("sweep stream missing header or trailer")
	}
	return jobID, points, done
}

// TestSweepDedupAcrossRequests: duplicate grid points and points
// already computed by /v1/simulate must each execute exactly once —
// duplicates join or hit, pre-cached points hit, and the payloads are
// byte-identical with the individual endpoint's artifacts.
func TestSweepDedupAcrossRequests(t *testing.T) {
	_, ts := testServer(t, Options{})

	// Pre-warm seedOffset=2 through the individual endpoint.
	preBody := strings.Replace(sweepTemplate, `"densitySteps": 3,`, `"densitySteps": 3, "seedOffset": 2,`, 1)
	resp, pre := postJSON(t, ts.URL+"/v1/simulate", preBody)
	if resp.StatusCode != 200 {
		t.Fatalf("pre-warm: %d (%s)", resp.StatusCode, pre)
	}

	// seedOffsets [1,1,2]: point 1 duplicates point 0, point 2 is warm.
	sweep := fmt.Sprintf(`{"template": %s, "axes": {"seedOffsets": [1, 1, 2]}}`, sweepTemplate)
	_, points, done := postSweep(t, ts.URL, sweep)
	if done.Done.Errors != 0 || done.Done.OK != 3 {
		t.Fatalf("tally: %+v", *done.Done)
	}
	if done.Done.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (one unique cold point)", done.Done.Misses)
	}
	if oc := points[2].Cache; oc != string(OutcomeHit) {
		t.Errorf("pre-warmed point outcome %q, want hit", oc)
	}
	dupOutcomes := []string{points[0].Cache, points[1].Cache}
	missSeen := 0
	for _, oc := range dupOutcomes {
		switch oc {
		case string(OutcomeMiss):
			missSeen++
		case string(OutcomeJoin), string(OutcomeHit):
		default:
			t.Errorf("duplicate point outcome %q", oc)
		}
	}
	if missSeen != 1 {
		t.Errorf("duplicate pair computed %d times, want 1 (outcomes %v)", missSeen, dupOutcomes)
	}
	if !bytes.Equal(points[0].Result, points[1].Result) {
		t.Error("duplicate points returned different payloads")
	}
	if !bytes.Equal(points[2].Result, pre) {
		t.Errorf("sweep point payload differs from /v1/simulate artifact:\n%s\nvs\n%s", points[2].Result, pre)
	}

	// The reverse direction: a point computed by the sweep must be a
	// byte-identical hit for a hand-POSTed equivalent body.
	postBody := strings.Replace(sweepTemplate, `"densitySteps": 3,`, `"densitySteps": 3, "seedOffset": 1,`, 1)
	resp, b := postJSON(t, ts.URL+"/v1/simulate", postBody)
	if resp.StatusCode != 200 {
		t.Fatalf("post-check: %d (%s)", resp.StatusCode, b)
	}
	if oc := resp.Header.Get("X-Cache"); oc != "hit" {
		t.Errorf("equivalent /v1/simulate after sweep: X-Cache %q, want hit", oc)
	}
	if !bytes.Equal(b, points[0].Result) {
		t.Error("/v1/simulate artifact differs from sweep point payload")
	}
}

// TestSweepWarmGrid256: the acceptance grid — a 256-point sweep over a
// warm cache must serve at least 95% of points as hits or joins, with
// every payload byte-identical to the cold run.
func TestSweepWarmGrid256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-point grid in -short mode")
	}
	_, ts := testServer(t, Options{Workers: 8, SweepWorkers: 16})
	seeds := make([]string, 64)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	sweep := fmt.Sprintf(
		`{"template": %s, "axes": {"seedOffsets": [%s], "meshScales": [1, 1.25], "rankScales": [1, 0.5]}}`,
		sweepTemplate, strings.Join(seeds, ","))

	_, cold, doneCold := postSweep(t, ts.URL, sweep)
	if len(cold) != 256 || doneCold.Done.Errors != 0 {
		t.Fatalf("cold run: %d points, tally %+v", len(cold), *doneCold.Done)
	}
	_, warm, doneWarm := postSweep(t, ts.URL, sweep)
	if doneWarm.Done.Errors != 0 {
		t.Fatalf("warm run tally: %+v", *doneWarm.Done)
	}
	served := doneWarm.Done.Hits + doneWarm.Done.Joins + doneWarm.Done.Disk
	if served < 244 { // 95% of 256 = 243.2
		t.Errorf("warm grid served %d/256 from cache, want >= 244 (tally %+v)", served, *doneWarm.Done)
	}
	for i := range warm {
		if !bytes.Equal(warm[i].Result, cold[i].Result) {
			t.Fatalf("point %d payload differs between cold and warm runs", i)
		}
	}
}

// TestSweepBadRequests: invalid sweeps must be rejected up front with a
// 400, not point-by-point errors.
func TestSweepBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := map[string]string{
		"empty axes":         fmt.Sprintf(`{"template": %s, "axes": {}}`, sweepTemplate),
		"zero mesh scale":    fmt.Sprintf(`{"template": %s, "axes": {"meshScales": [0]}}`, sweepTemplate),
		"negative ranks":     fmt.Sprintf(`{"template": %s, "axes": {"rankScales": [-1]}}`, sweepTemplate),
		"zero density steps": fmt.Sprintf(`{"template": %s, "axes": {"densitySteps": [0]}}`, sweepTemplate),
		"strategy, no particles": fmt.Sprintf(
			`{"template": %s, "axes": {"strategies": ["steal"]}}`, sweepTemplate),
		"oversized grid": fmt.Sprintf(
			`{"template": %s, "axes": {"seedOffsets": [%s], "meshScales": [1,2,3,4,5]}}`,
			sweepTemplate, strings.Trim(strings.Repeat("1,", 1000), ",")),
		"unknown field":   fmt.Sprintf(`{"template": %s, "axes": {"bogus": [1]}}`, sweepTemplate),
		"broken template": `{"template": {"densitySteps": 3}, "axes": {"seedOffsets": [1]}}`,
	}
	for name, body := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
	}
}

// TestSweepCacheBoundedEviction: a sweep whose artifacts exceed the
// in-memory budget must complete while the cache stays within budget
// and reports evictions.
func TestSweepCacheBoundedEviction(t *testing.T) {
	// Measure one artifact first, on an unbounded server.
	_, ts := testServer(t, Options{})
	resp, one := postJSON(t, ts.URL+"/v1/simulate", sweepTemplate)
	if resp.StatusCode != 200 {
		t.Fatalf("sizing run: %d", resp.StatusCode)
	}

	budget := int64(len(one)) * 5 / 2 // room for ~2.5 artifacts
	s, ts2 := testServer(t, Options{CacheMaxBytes: budget})
	sweep := fmt.Sprintf(`{"template": %s, "axes": {"seedOffsets": [1,2,3,4,5,6]}}`, sweepTemplate)
	_, _, done := postSweep(t, ts2.URL, sweep)
	if done.Done.Errors != 0 || done.Done.OK != 6 {
		t.Fatalf("sweep over tiny cache: tally %+v", *done.Done)
	}
	if got := s.cache.Bytes(); got > budget {
		t.Errorf("cache holds %d bytes, budget %d", got, budget)
	}
	if s.cache.Evictions() == 0 {
		t.Error("no evictions despite sweep exceeding the byte budget")
	}
	if s.cache.MaxBytes() != budget {
		t.Errorf("MaxBytes = %d, want %d", s.cache.MaxBytes(), budget)
	}
	resp2, metrics := postJSON(t, ts2.URL+"/v1/allocate", allocBody) // any request, then scrape
	if resp2.StatusCode != 200 {
		t.Fatal("allocate failed")
	}
	_ = metrics
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	for _, want := range []string{"cpxserve_cache_evictions_total", "cpxserve_cache_bytes", "cpxserve_cache_max_bytes"} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestSweepPointsWaitForRoom: sweep points that find the worker busy
// and the queue full wait for room under the request deadline instead
// of failing with 429.
func TestSweepPointsWaitForRoom(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueLen: 1})
	release := occupy(t, s.cache, 2)
	go func() {
		defer release()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			s.cache.mu.Lock()
			blocked := s.cache.room != nil
			s.cache.mu.Unlock()
			if blocked {
				return
			}
		}
	}()
	_, points, done := postSweep(t, ts.URL, `{"template": `+sweepTemplate+`, "axes": {"seedOffsets": [1, 2, 3]}}`)
	if d := done.Done; d.OK != 3 || d.Misses != 3 {
		t.Fatalf("trailer %+v, want 3 points computed; points %+v", *d, points)
	}
}

// TestSweepScaleOverflowRejected: a scale whose product overflows its
// field, or takes a rank count above maxRanks, rejects the sweep with a
// 400 naming the axis and value. Unchecked, each ran as a 1-cell or
// 1-rank point, or with 8e9 ranks, while echoing the scale it was given.
func TestSweepScaleOverflowRejected(t *testing.T) {
	const template = `{"densitySteps": 1, "instances": [{"name": "row", "kind": "mgcfd", "meshCells": 1000000000, "ranks": 8, "seed": 1}]}`
	expand := func(axes string) ([]sweepJob, error) {
		var req SweepRequest
		if err := DecodeStrict(strings.NewReader(`{"template": `+template+`, "axes": `+axes+`}`), &req); err != nil {
			t.Fatal(err)
		}
		return expandSweep(&req)
	}
	for _, tc := range []struct{ axes, want string }{
		{`{"meshScales": [1e10]}`, `axes.meshScales value 1e+10 takes instance "row" field "meshCells"`},
		{`{"rankScales": [1e300]}`, `axes.rankScales value 1e+300 takes instance "row" field "ranks"`},
		{`{"rankScales": [1e9]}`, `axes.rankScales value 1e+09 takes instance "row" field "ranks"`},
	} {
		if _, err := expand(tc.axes); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: expandSweep error %v, want one naming %s", tc.axes, err, tc.want)
		}
	}
	if jobs, err := expand(`{"rankScales": [2], "meshScales": [9]}`); err != nil ||
		jobs[0].simReq.Instances[0].Ranks != 16 || jobs[0].simReq.Instances[0].MeshCells != 9e9 {
		t.Errorf("in-range scales: %v, %+v", err, jobs)
	}
	_, ts := testServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{"template": `+template+`, "axes": {"meshScales": [1e10]}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "axes.meshScales value 1e+10") {
		t.Errorf("sweep: %d (%s), want a 400 naming the axis and value", resp.StatusCode, body)
	}
}

// TestCacheOversizedEntryNotAdmitted: a single artifact larger than the
// whole budget must be served but never admitted (it would evict
// everything for no reuse benefit).
func TestCacheOversizedEntryNotAdmitted(t *testing.T) {
	c := NewCache(CacheConfig{MaxBytes: 8})
	body, oc, err := c.Do(t.Context(), "k1", false, func(ctx context.Context) ([]byte, error) {
		return []byte("way more than eight bytes"), nil
	})
	if err != nil || oc != OutcomeMiss {
		t.Fatalf("Do: %v %v", oc, err)
	}
	if len(body) == 0 {
		t.Fatal("empty body")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("oversized entry admitted: len %d bytes %d", c.Len(), c.Bytes())
	}
}

// TestRetryAfterGrowsWithQueueDepth: the 429 hint must be computed from
// observed job latency and queue depth, not hardcoded.
func TestRetryAfterGrowsWithQueueDepth(t *testing.T) {
	m := NewMetrics(NewCache(CacheConfig{QueueLen: 16}), NewRegistry())
	if got := m.RetryAfterSeconds(10, 4); got != 1 {
		t.Errorf("with no latency observations RetryAfterSeconds = %d, want 1", got)
	}
	m.ObserveJobTime(2.0)
	shallow := m.RetryAfterSeconds(0, 4)
	mid := m.RetryAfterSeconds(8, 4)
	deep := m.RetryAfterSeconds(64, 4)
	if !(shallow < mid && mid < deep) {
		t.Errorf("hint not monotone in depth: %d, %d, %d", shallow, mid, deep)
	}
	if got := m.RetryAfterSeconds(1_000_000, 1); got != retryAfterMaxSeconds {
		t.Errorf("unclamped hint %d, want %d", got, retryAfterMaxSeconds)
	}
}

// TestBackpressureRetryAfterComputed: end to end, a 429 from a full
// cache with a seeded latency EWMA must carry the computed hint, not the
// old constant "1".
func TestBackpressureRetryAfterComputed(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueLen: 2})
	s.metrics.ObserveJobTime(10.0)
	occupy(t, s.cache, 3)
	resp, _ := postJSON(t, ts.URL+"/v1/allocate", allocBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	// depth 2, 1 worker, EWMA 10s -> ceil(10 * (2/1 + 1)) = 30.
	if ra != "30" {
		t.Errorf("Retry-After = %q, want %q (computed from EWMA x depth)", ra, "30")
	}
}

// TestRegistryPinPreventsEviction: a pinned terminal job must survive
// the retention sweep; once unpinned it retires and is evicted like any
// other, maxRetainedJobs retirements after its last lookup.
func TestRegistryPinPreventsEviction(t *testing.T) {
	reg := NewRegistry()
	pinned := reg.Create("/p")
	pinned.Pin()
	pinned.Finish(JobDone, 200, "", nil)
	flood := func(n int) {
		for i := 0; i < n; i++ {
			j := reg.Create("/flood")
			j.Finish(JobDone, 200, "", nil)
		}
	}
	flood(maxRetainedJobs + 100)
	if reg.Get(pinned.ID()) == nil {
		t.Fatal("pinned terminal job evicted while pinned")
	}
	pinned.Unpin()
	flood(maxRetainedJobs - 1)
	if reg.Get(pinned.ID()) == nil {
		t.Fatal("unpinned terminal job evicted before maxRetainedJobs later retirements")
	}
	flood(maxRetainedJobs)
	if reg.Get(pinned.ID()) != nil {
		t.Fatal("unpinned terminal job survived maxRetainedJobs retirements after its last lookup")
	}
}

// TestRegistryKeepsLongJobAfterFinish: retention counts from a job's
// finish, not its admission, so a long job that stays live while many
// shorter ones come and go is still resolvable once it is done.
func TestRegistryKeepsLongJobAfterFinish(t *testing.T) {
	reg := NewRegistry()
	long := reg.Create("/v1/simulate")
	for i := 0; i < maxRetainedJobs+100; i++ {
		reg.Create("/short").Finish(JobDone, 200, "", nil)
	}
	long.Finish(JobDone, 200, "", nil)
	reg.Create("/next")
	if reg.Get(long.ID()) == nil {
		t.Fatal("a long job lost its registry entry at the first admission after it finished")
	}
	if got, want := reg.Retained(), maxRetainedJobs+1; got != want {
		t.Errorf("retained %d jobs, want %d: the retired bound plus the live one", got, want)
	}
	if got := reg.Active(); got != 1 {
		t.Errorf("%d active jobs, want 1", got)
	}
}

// TestRegistryPinTakesBackRetiredJob: pinning a job that has already
// retired (an SSE watcher of a finished job) protects it as pinning a
// live one does, and its Unpin retires it again.
func TestRegistryPinTakesBackRetiredJob(t *testing.T) {
	reg := NewRegistry()
	watched := reg.Create("/w")
	watched.Finish(JobDone, 200, "", nil)
	watched.Pin()
	for i := 0; i < maxRetainedJobs+1; i++ {
		reg.Create("/flood").Finish(JobDone, 200, "", nil)
	}
	if reg.Get(watched.ID()) == nil {
		t.Fatal("a retired job evicted while pinned")
	}
	watched.Unpin()
	if got := reg.Retained(); got != maxRetainedJobs {
		t.Errorf("retained %d jobs after the last Unpin, want %d", got, maxRetainedJobs)
	}
	if reg.Get(watched.ID()) == nil {
		t.Error("the last Unpin dropped the job instead of retiring it")
	}
}

// TestRegistryRetiresUnderConcurrency: Finish races the last Unpin and
// watchers' Get/Pin/Unpin. Each job retires exactly once, so when all are
// finished and unpinned none is left live and the retired bound holds.
func TestRegistryRetiresUnderConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				j := reg.Create("/c")
				j.Pin()
				steps := []func(){
					func() { j.Finish(JobDone, 200, "", nil) },
					func() {
						j.Unpin()
						if w := reg.Get(j.ID()); w != nil {
							w.Pin()
							w.Unpin()
						}
					},
				}
				if i%2 == 1 { // start them in both orders
					steps[0], steps[1] = steps[1], steps[0]
				}
				var pair sync.WaitGroup
				for _, step := range steps {
					pair.Add(1)
					go func() {
						defer pair.Done()
						step()
					}()
				}
				pair.Wait()
			}
		}()
	}
	wg.Wait()
	if reg.Active() != 0 || len(reg.jobs) != 0 || reg.Retained() != maxRetainedJobs {
		t.Errorf("active %d, live or pinned %d, retained %d; want 0, 0, %d",
			reg.Active(), len(reg.jobs), reg.Retained(), maxRetainedJobs)
	}
}

// TestSweepChildJobsPinnedWhileStreaming: every sweep point gets a
// child job, resolvable through /v1/jobs/{id} right after the sweep
// (the sweep pins children for its own lifetime, so watchers never race
// eviction mid-flight).
func TestSweepChildJobsPinnedWhileStreaming(t *testing.T) {
	s, ts := testServer(t, Options{})
	sweep := fmt.Sprintf(`{"template": %s, "axes": {"seedOffsets": [1, 2]}}`, sweepTemplate)
	jobID, _, _ := postSweep(t, ts.URL, sweep)
	parent := s.registry.Get(jobID)
	if parent == nil {
		t.Fatal("sweep job not in registry")
	}
	v := parent.View()
	if v.PointsTotal != 2 || v.PointsDone != 2 {
		t.Errorf("sweep progress %d/%d, want 2/2", v.PointsDone, v.PointsTotal)
	}
	children := 0
	for _, jv := range s.registry.List() {
		if jv.Endpoint == "/v1/sweep/point" {
			children++
			if jv.State != JobDone {
				t.Errorf("child %s state %q, want done", jv.ID, jv.State)
			}
		}
	}
	if children != 2 {
		t.Errorf("%d child jobs listed, want 2", children)
	}
}

// TestShardRouteDeterministicAndFailover: ring placement must be a pure
// function of the key (stable across ShardSet instances, i.e. across
// processes and restarts); unhealthy shards are walked past; with every
// shard down routing degrades to nil.
func TestShardRouteDeterministicAndFailover(t *testing.T) {
	urls := []string{"http://h1:1", "http://h2:1", "http://h3:1"}
	logger := discardLogger()
	a, err := NewShardSet(urls, time.Hour, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewShardSet(urls, time.Hour, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	keys := make([]string, 200)
	for i := range keys {
		keys[i] = cacheKey("/v1/simulate", []byte(fmt.Sprintf("scenario-%d", i)))
	}
	used := map[string]int{}
	for _, k := range keys {
		sa, sb := a.Route(k), b.Route(k)
		if sa == nil || sb == nil || sa.URL != sb.URL {
			t.Fatalf("key %s routes differently across instances: %v vs %v", k, sa, sb)
		}
		used[sa.URL]++
	}
	if len(used) != 3 {
		t.Errorf("200 keys used %d of 3 shards (%v)", len(used), used)
	}

	victim := a.Route(keys[0])
	victim.healthy.Store(false)
	for _, k := range keys {
		sh := a.Route(k)
		if sh == nil {
			t.Fatal("route returned nil with healthy shards remaining")
		}
		if sh.URL == victim.URL {
			t.Fatalf("key routed to unhealthy shard %s", victim.URL)
		}
	}
	for _, sh := range a.shards {
		sh.healthy.Store(false)
	}
	if sh := a.Route(keys[0]); sh != nil {
		t.Errorf("all shards down but Route returned %s; want nil (degrade to local)", sh.URL)
	}

	if _, err := NewShardSet([]string{"not-a-url"}, time.Hour, logger); err == nil {
		t.Error("relative shard URL accepted")
	}
	if _, err := NewShardSet([]string{"http://h1:1", "http://h1:1"}, time.Hour, logger); err == nil {
		t.Error("duplicate shard accepted")
	}
}

// TestForwardCarriesRemainingDeadline: the front-end hands a shard the
// time the caller still has, as ?timeout=, on every forward — a sweep
// given five minutes must not lose its shard-routed points to the
// shard's own 60 s default, and a plain simulate forwards the front-end
// default. A caller's deadline running out mid-forward is not evidence
// against the shard.
func TestForwardCarriesRemainingDeadline(t *testing.T) {
	var (
		mu      sync.Mutex
		queries []time.Duration
	)
	stall := make(chan struct{})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		io.Copy(io.Discard, r.Body)
		d, err := time.ParseDuration(r.URL.Query().Get("timeout"))
		if err != nil {
			t.Errorf("shard received query %q: %v", r.URL.RawQuery, err)
			return
		}
		if d < time.Second { // the last request below: outlive its 50ms
			<-stall
			return
		}
		mu.Lock()
		queries = append(queries, d)
		mu.Unlock()
		w.Header().Set("X-Cache", "miss")
		w.Write([]byte(`{"elapsed":1}`))
	}))
	defer shard.Close()
	defer close(stall)
	s, ts := testServer(t, Options{Shards: []string{shard.URL}, ShardProbeInterval: time.Hour})
	received := func() []time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), queries...)
	}

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != 200 || resp.Header.Get("X-Shard") != shard.URL {
		t.Fatalf("plain simulate: status %d, X-Shard %q (%s)", resp.StatusCode, resp.Header.Get("X-Shard"), body)
	}
	if got := received(); len(got) != 1 || got[0] <= 30*time.Second || got[0] > 60*time.Second {
		t.Errorf("plain simulate forwarded timeouts %v, want one just under the 60s default", got)
	}

	sweep := fmt.Sprintf(`{"template": %s, "axes": {"seedOffsets": [1, 2]}}`, sweepTemplate)
	resp, body = postJSON(t, ts.URL+"/v1/sweep?timeout=5m", sweep)
	if resp.StatusCode != 200 || strings.Contains(string(body), `"error"`) {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	got := received()
	if len(got) != 3 {
		t.Fatalf("shard saw %d forwards, want 3 (one simulate, two sweep points)", len(got))
	}
	for _, d := range got[1:] {
		if d <= 4*time.Minute || d > 5*time.Minute {
			t.Errorf("sweep point forwarded ?timeout=%v, want just under the sweep's 5m", d)
		}
	}

	big := strings.Replace(simBody, `"densitySteps": 3`, `"densitySteps": 4`, 1)
	resp, body = postJSON(t, ts.URL+"/v1/simulate?timeout=50ms", big)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("stalled forward: status %d (%s), want 504", resp.StatusCode, body)
	}
	if !s.shards.shards[0].healthy.Load() {
		t.Error("shard demoted because the caller's own deadline expired")
	}
}

// TestForwardCapsShardBody: a shard answer longer than maxBodyBytes is a
// transport failure, not an artifact to relay — the shard is demoted and
// the front-end answers with the job run locally.
func TestForwardCapsShardBody(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Cache", "miss")
		w.Write(bytes.Repeat([]byte(" "), 9<<20))
	}))
	defer shard.Close()
	s, ts := testServer(t, Options{Shards: []string{shard.URL}, ShardProbeInterval: time.Hour})
	_, local := testServer(t, Options{})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != 200 || resp.Header.Get("X-Shard") != "" {
		t.Fatalf("status %d, X-Shard %q, %d-byte body; want 200 from a local run",
			resp.StatusCode, resp.Header.Get("X-Shard"), len(body))
	}
	_, want := postJSON(t, local.URL+"/v1/simulate", simBody)
	if !bytes.Equal(body, want) {
		t.Errorf("front-end answered %d bytes, want the local artifact (%d bytes)", len(body), len(want))
	}
	if s.shards.shards[0].healthy.Load() {
		t.Error("shard with an oversized answer stayed healthy")
	}
}

// TestDiskCacheRoundtripAndCorruption: artifacts round-trip through the
// disk tier; a flipped byte fails sha256 verification, rejects the read
// and removes the file.
func TestDiskCacheRoundtripAndCorruption(t *testing.T) {
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"elapsed": 42}`)
	key := cacheKey("/v1/simulate", body)
	if _, ok := dc.Get(key); ok {
		t.Fatal("hit before any put")
	}
	dc.Put(key, body)
	got, ok := dc.Get(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("roundtrip: ok=%v got=%q", ok, got)
	}

	// Corrupt the stored body in place.
	path := filepath.Join(dc.root, key[:2], key[2:])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get(key); ok {
		t.Fatal("corrupted artifact served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupted artifact not removed")
	}
	_, _, _, rejects := dc.Stats()
	if rejects != 1 {
		t.Errorf("rejects = %d, want 1", rejects)
	}
	if _, ok := dc.Get("zz-not-a-key"); ok {
		t.Error("malformed key served")
	}
}

// TestDiskTierSurvivesRestart: artifacts computed by one server are
// served by a fresh server sharing the cache directory — first from
// disk (verified, promoted), then from memory.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := testServer(t, Options{CacheDir: dir})
	resp, first := postJSON(t, ts1.URL+"/v1/simulate", sweepTemplate)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold run: %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	_, ts2 := testServer(t, Options{CacheDir: dir})
	resp, b := postJSON(t, ts2.URL+"/v1/simulate", sweepTemplate)
	if resp.StatusCode != 200 {
		t.Fatalf("restart run: %d", resp.StatusCode)
	}
	if oc := resp.Header.Get("X-Cache"); oc != string(OutcomeDisk) {
		t.Errorf("after restart X-Cache %q, want %q", oc, OutcomeDisk)
	}
	if !bytes.Equal(b, first) {
		t.Error("artifact differs across restart")
	}
	resp, b = postJSON(t, ts2.URL+"/v1/simulate", sweepTemplate)
	if oc := resp.Header.Get("X-Cache"); oc != string(OutcomeHit) {
		t.Errorf("after promotion X-Cache %q, want hit", oc)
	}
	if !bytes.Equal(b, first) {
		t.Error("promoted artifact differs")
	}
}

// TestSweepPersistsToDiskTier: every sweep point's artifact lands in
// the disk tier, so a restarted server re-serves the whole grid without
// recomputing.
func TestSweepPersistsToDiskTier(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := testServer(t, Options{CacheDir: dir})
	sweep := fmt.Sprintf(`{"template": %s, "axes": {"seedOffsets": [1, 2, 3]}}`, sweepTemplate)
	_, cold, doneCold := postSweep(t, ts1.URL, sweep)
	if doneCold.Done.Errors != 0 {
		t.Fatalf("cold sweep tally: %+v", *doneCold.Done)
	}

	_, ts2 := testServer(t, Options{CacheDir: dir})
	_, warm, doneWarm := postSweep(t, ts2.URL, sweep)
	if doneWarm.Done.Errors != 0 || doneWarm.Done.Misses != 0 {
		t.Fatalf("restarted sweep recomputed points: %+v", *doneWarm.Done)
	}
	for i := range warm {
		if !bytes.Equal(warm[i].Result, cold[i].Result) {
			t.Fatalf("point %d differs across restart", i)
		}
	}
}

// ObserveJobTime feeds one computed-job latency into the EWMA, as the
// request path does through Observe.
func (m *Metrics) ObserveJobTime(seconds float64) {
	m.mu.Lock()
	m.observeJobTimeLocked(seconds)
	m.mu.Unlock()
}
