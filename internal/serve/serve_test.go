package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/perfmodel"
)

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Machine == nil {
		opts.Machine = cluster.SmallCluster()
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const allocBody = `{
  "budget": 4000,
  "components": [
    {"name": "row1", "minRanks": 100,
     "curve": {"baseCores": 100, "baseTime": 30, "p50": 5000, "k": 1.3}},
    {"name": "comb", "minRanks": 100,
     "curve": {"baseCores": 100, "baseTime": 400, "p50": 2500, "k": 1.3}},
    {"name": "cu", "isCU": true, "minRanks": 10,
     "curve": {"baseCores": 100, "baseTime": 0.5, "p50": 200, "k": 1.3}}
  ]
}`

const simBody = `{
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

// TestHealthz exercises the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), `"status":"ok"`) {
		t.Fatalf("healthz body %q", b)
	}
}

// TestAllocateEndpointCachesByteIdentical: the second identical request
// must be a cache hit with the byte-identical artifact, even when the
// body differs in whitespace, key order and number formatting.
func TestAllocateEndpointCachesByteIdentical(t *testing.T) {
	_, ts := testServer(t, Options{})
	url := ts.URL + "/v1/allocate"
	resp1, body1 := postJSON(t, url, allocBody)
	if resp1.StatusCode != 200 {
		t.Fatalf("first allocate: %d %s", resp1.StatusCode, body1)
	}
	if xc := resp1.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", xc)
	}
	resp2, body2 := postJSON(t, url, allocBody)
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	// Same spec, different surface syntax: reordered keys and
	// whitespace. Must hit the same cache entry.
	reformatted := `  {"components": [
	    {"minRanks": 100, "name": "row1",
	     "curve": {"baseTime": 30, "baseCores": 100, "k": 1.3, "p50": 5000}},
	    {"curve": {"baseCores": 100, "baseTime": 400, "p50": 2500, "k": 1.3},
	     "name": "comb", "minRanks": 100},
	    {"name": "cu", "minRanks": 10, "isCU": true,
	     "curve": {"baseCores": 100, "baseTime": 0.5, "p50": 200, "k": 1.3}}],
	   "budget": 4000}`
	resp3, body3 := postJSON(t, url, reformatted)
	if xc := resp3.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("reformatted request X-Cache = %q, want hit (canonicalisation failed)", xc)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatalf("reformatted request returned different bytes")
	}
	if !strings.Contains(string(body1), `"predicted"`) {
		t.Fatalf("allocate response missing prediction: %s", body1)
	}
}

// femBody couples a compressor row to a casing thermal FEM instance: the
// documented fourth instance kind, with the unit kind and search left to
// their defaults (sliding, prefetch).
const femBody = `{
  "densitySteps": 2,
  "rotationPerStep": 0.001,
  "instances": [
    {"name": "row", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 1},
    {"name": "casing", "kind": "FEM", "meshCells": 2048, "ranks": 2, "seed": 2}
  ],
  "units": [
    {"name": "cu", "a": 0, "b": 1, "points": 500, "ranks": 1}
  ]
}`

// TestSimulateEndpointCachesByteIdentical runs real coupled jobs twice.
func TestSimulateEndpointCachesByteIdentical(t *testing.T) {
	_, ts := testServer(t, Options{})
	url := ts.URL + "/v1/simulate"
	for name, body := range map[string]string{"mgcfd pair": simBody, "fem casing": femBody} {
		resp1, body1 := postJSON(t, url, body)
		if resp1.StatusCode != 200 {
			t.Fatalf("%s: simulate: %d %s", name, resp1.StatusCode, body1)
		}
		if xc := resp1.Header.Get("X-Cache"); xc != "miss" {
			t.Errorf("%s: first simulate X-Cache = %q, want miss", name, xc)
		}
		resp2, body2 := postJSON(t, url, body)
		if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
			t.Errorf("%s: second simulate X-Cache = %q, want hit", name, xc)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s: simulate cache hit not byte-identical", name)
		}
		if !strings.Contains(string(body1), `"elapsed"`) {
			t.Fatalf("%s: simulate response missing elapsed: %s", name, body1)
		}
	}
}

// TestRemovedRunOptionsAreRejected: the executor and collective-path
// request fields never changed an artifact byte, yet two bodies
// differing only there used to miss each other's cache entry. The fields
// are gone, so strict decoding answers 400 naming the field, on
// /v1/simulate and inside a /v1/sweep template alike. (The names are
// spelled in halves so a search of the Go sources for a field that is
// still accepted finds nothing.)
func TestRemovedRunOptionsAreRejected(t *testing.T) {
	_, ts := testServer(t, Options{})
	for field, value := range map[string]string{"fast" + "Coll": "true", "sch" + "ed": `"event"`} {
		extra := fmt.Sprintf(`{"%s": %s,`, field, value)
		sim := strings.Replace(simBody, "{", extra, 1)
		sweep := fmt.Sprintf(`{"template": %s, "axes": {"seedOffsets": [1]}}`, strings.Replace(sweepTemplate, "{", extra, 1))
		for url, body := range map[string]string{"/v1/simulate": sim, "/v1/sweep": sweep} {
			resp, msg := postJSON(t, ts.URL+url, body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field) {
				t.Errorf("%s with %q: status %d body %s, want 400 naming the field", url, field, resp.StatusCode, msg)
			}
		}
	}
}

// TestDemoCacheKeyPinned pins the cache key of the `cpxsim -demo` body
// to the value it had before the two run-option fields were removed from
// SimulateRequest: a body that never set them hashes as it always did,
// so no stored artifact was orphaned.
func TestDemoCacheKeyPinned(t *testing.T) {
	const demoBody = `{"densitySteps": 4, "rotationPerStep": 0.002,
	 "instances": [
	  {"name": "compressor", "kind": "mgcfd", "meshCells": 100000, "ranks": 8, "seed": 1},
	  {"name": "combustor", "kind": "simpic", "meshCells": 28000000, "ranks": 8, "seed": 2},
	  {"name": "turbine", "kind": "mgcfd", "meshCells": 100000, "ranks": 8, "seed": 3}],
	 "units": [
	  {"name": "hpc-comb", "a": 0, "b": 1, "kind": "steady", "points": 50000, "ranks": 2, "search": "prefetch", "exchangeEvery": 2},
	  {"name": "comb-hpt", "a": 1, "b": 2, "kind": "steady", "points": 50000, "ranks": 2, "search": "prefetch", "exchangeEvery": 2}]}`
	var req SimulateRequest
	if err := DecodeStrict(strings.NewReader(demoBody), &req); err != nil {
		t.Fatal(err)
	}
	canonical, err := canonicalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	const want = "f1ba3a406b103ce51622cf52ebea6472002d915a24eab074107066e5f881c725"
	if got := cacheKey("/v1/simulate", canonical); got != want {
		t.Errorf("demo cache key %s, want %s (canonical form %s)", got, want, canonical)
	}
}

// TestFitAndSpeedupEndpoints smoke-tests the remaining model routes.
func TestFitAndSpeedupEndpoints(t *testing.T) {
	_, ts := testServer(t, Options{})
	fitBody := `{"samples": [
		{"cores": 100, "runtime": 30}, {"cores": 200, "runtime": 15.2},
		{"cores": 400, "runtime": 7.8}, {"cores": 800, "runtime": 4.1},
		{"cores": 1600, "runtime": 2.4}]}`
	resp, body := postJSON(t, ts.URL+"/v1/fit", fitBody)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"p50"`) {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	spBody := `{
	  "budget": 4000,
	  "base": [{"name": "a", "minRanks": 100, "curve": {"baseCores": 100, "baseTime": 400, "p50": 2500, "k": 1.3}}],
	  "optimized": [{"name": "a", "minRanks": 100, "curve": {"baseCores": 100, "baseTime": 300, "p50": 3500, "k": 1.3}}]
	}`
	resp, body = postJSON(t, ts.URL+"/v1/speedup", spBody)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"speedup"`) {
		t.Fatalf("speedup: %d %s", resp.StatusCode, body)
	}
}

func TestDemoComponentsFitAndAllocate(t *testing.T) {
	comps := DemoComponents()
	if len(comps) != 4 {
		t.Fatalf("demo components = %d", len(comps))
	}
	model, err := BuildComponents(comps)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := perfmodel.Allocate(model, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// The combustor (worst absolute time) must receive the most ranks
	// among the instances.
	maxIdx := 0
	for i := 0; i < 3; i++ {
		if alloc.Cores[i] > alloc.Cores[maxIdx] {
			maxIdx = i
		}
	}
	if model[maxIdx].Name != "combustor (380M equiv)" {
		t.Errorf("largest allocation went to %q", model[maxIdx].Name)
	}
}

// TestBadRequests: malformed JSON, unknown fields, bad budget, bad
// timeout parameter, unknown enum spellings — all 400 (the spec ones
// naming the offending field), none cached.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{})
	// Three of these sum to 3·2^62, which wraps to a negative int.
	const minRanks62 = `{"name": "a", "minRanks": 4611686018427387904, "curve": {"baseCores": 1, "baseTime": 1, "p50": 10, "k": 1}}`
	cases := []struct {
		name, url, body string
		want            string // substring of the error body
	}{
		{"malformed", ts.URL + "/v1/allocate", `{"budget": `, ""},
		{"unknown-field", ts.URL + "/v1/allocate", `{"budget": 100, "component": []}`, ""},
		{"non-positive-budget", ts.URL + "/v1/allocate", `{"budget": 0, "components": [{"name": "a", "curve": {"baseCores": 1, "baseTime": 1, "p50": 10, "k": 1}}]}`, ""},
		{"budget-above-bound", ts.URL + "/v1/allocate", fmt.Sprintf(`{"budget": %d, "components": [{"name": "a", "curve": {"baseCores": 1, "baseTime": 1, "p50": 10, "k": 1}}]}`, maxBudget+1), `field \"budget\"`},
		{"minimums-overflow", ts.URL + "/v1/allocate", `{"budget": 1000, "components": [` + minRanks62 + `, ` + minRanks62 + `, ` + minRanks62 + `]}`, "minimum allocations"},
		{"no-components", ts.URL + "/v1/allocate", `{"budget": 100, "components": []}`, ""},
		{"trailing-garbage", ts.URL + "/v1/allocate", allocBody + ` {"x": 1}`, ""},
		{"bad-timeout", ts.URL + "/v1/allocate?timeout=yesterday", allocBody, ""},
		{"bad-sim-kind", ts.URL + "/v1/simulate", `{"densitySteps": 1, "rotationPerStep": 0.1, "instances": [{"name": "x", "kind": "openfoam", "meshCells": 10, "ranks": 1, "seed": 1}], "units": []}`, `instance \"x\": field \"kind\"`},
		{"bad-unit-kind", ts.URL + "/v1/simulate", strings.Replace(simBody, `"kind": "sliding"`, `"kind": "stedy"`, 1), `unit \"cu\": field \"kind\"`},
		{"bad-unit-search", ts.URL + "/v1/simulate", strings.Replace(simBody, `"search": "tree"`, `"search": "quantum"`, 1), `unit \"cu\": field \"search\"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, tc.url, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("error body %s does not name the field (want %s)", body, tc.want)
			}
		})
	}
}

// TestComponentFieldsChecked: an explicit curve's baseCores, baseTime
// and p50 must be positive, its k and the component's ratios not
// negative, on /v1/allocate and /v1/speedup alike, and the 400 names
// the field. Unchecked, a zero or negative p50 answered 500 (a NaN
// time), a zero baseCores a time of 0, a negative baseTime a negative
// time, and a negative sizeRatio a prediction of 0 with 990 of 1,000
// ranks idle.
func TestComponentFieldsChecked(t *testing.T) {
	_, ts := testServer(t, Options{})
	comp := func(field, value string) string {
		c := map[string]string{"baseCores": "100", "baseTime": "30", "p50": "5000", "k": "1.3", "sizeRatio": "1", "iterRatio": "1"}
		c[field] = value
		return `{"name": "a", "minRanks": 10, "sizeRatio": ` + c["sizeRatio"] + `, "iterRatio": ` + c["iterRatio"] +
			`, "curve": {"baseCores": ` + c["baseCores"] + `, "baseTime": ` + c["baseTime"] + `, "p50": ` + c["p50"] + `, "k": ` + c["k"] + `}}`
	}
	for _, tc := range []struct{ field, value, want string }{
		{"p50", "0", `curve.p50 must be positive, got 0`},
		{"p50", "-1000", `curve.p50 must be positive, got -1000`},
		{"baseCores", "0", `curve.baseCores must be positive, got 0`},
		{"baseTime", "-10", `curve.baseTime must be positive, got -10`},
		{"k", "-1", `curve.k must not be negative, got -1`},
		{"sizeRatio", "-2", `sizeRatio must not be negative, got -2`},
		{"iterRatio", "-0.5", `iterRatio must not be negative, got -0.5`},
	} {
		t.Run(tc.field+"="+tc.value, func(t *testing.T) {
			for _, ep := range []struct{ url, body string }{
				{"/v1/allocate", `{"budget": 1000, "components": [` + comp(tc.field, tc.value) + `]}`},
				{"/v1/speedup", `{"budget": 1000, "base": [` + comp("k", "1.3") + `], "optimized": [` + comp(tc.field, tc.value) + `]}`},
			} {
				resp, body := postJSON(t, ts.URL+ep.url, ep.body)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `component \"a\": `+tc.want) {
					t.Errorf("%s: %d %s, want 400 naming %q", ep.url, resp.StatusCode, body, tc.want)
				}
			}
		})
	}
	// Zero ratios and a zero k keep their meaning: ratio 1, flat efficiency.
	for _, field := range []string{"sizeRatio", "iterRatio", "k"} {
		if resp, body := postJSON(t, ts.URL+"/v1/allocate", `{"budget": 1000, "components": [`+comp(field, "0")+`]}`); resp.StatusCode != http.StatusOK {
			t.Errorf("%s 0: %d %s, want 200", field, resp.StatusCode, body)
		}
	}
}

// TestRanksAreBounded: no instance or unit may ask for more than
// maxRanks ranks, nor may all of them together, and the error names the
// field. Unbounded, a /v1/simulate body with 2^62 ranks killed the
// server with a makeslice panic on a job goroutine, and 8e9 ranks
// passed Build and Validate.
func TestRanksAreBounded(t *testing.T) {
	inst := func(ranks string) string {
		return `{"densitySteps": 1, "instances": [{"name": "row", "kind": "mgcfd", "meshCells": 4096, "ranks": ` + ranks + `}]}`
	}
	build := func(body string) error {
		var req SimulateRequest
		if err := DecodeStrict(strings.NewReader(body), &req); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		_, err := req.Build()
		return err
	}
	for _, tc := range []struct{ name, body, want string }{
		{"instance 2^62", inst("4611686018427387904"), `instance "row": field "ranks"`},
		{"instance 8e9", inst("8000000000"), `instance "row": field "ranks"`},
		{"unit 8e9", strings.Replace(simBody, `"ranks": 2,`, `"ranks": 8000000000,`, 1), `unit "cu": field "ranks"`},
		{"total", `{"densitySteps": 1, "instances": [
			{"name": "a", "kind": "mgcfd", "meshCells": 4096, "ranks": 40000},
			{"name": "b", "kind": "mgcfd", "meshCells": 4096, "ranks": 40000}]}`, `field "ranks": instances and units total 80000`},
	} {
		if err := build(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Build error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
	if err := build(inst("65536")); err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	_, ts := testServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", inst("4611686018427387904"))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `field \"ranks\"`) {
		t.Fatalf("2^62 ranks: %d (%s), want a 400 naming the field", resp.StatusCode, body)
	}
}

// occupy admits n distinct computations to c that hold their worker or
// queue slot until release is called (at the latest when the test
// ends), and returns once all n are admitted.
func occupy(t *testing.T, c *Cache, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var returned sync.WaitGroup
	for i := range n {
		returned.Add(1)
		go func() {
			defer returned.Done()
			c.Do(context.Background(), fmt.Sprintf("occupy-%d", i), false, nil, func(context.Context, func(float64)) ([]byte, error) {
				<-gate
				return []byte("occupied"), nil
			})
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); liveJobs(c) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("occupy: %d of %d computations admitted", liveJobs(c), n)
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate); returned.Wait() }) }
	t.Cleanup(release)
	return release
}

// liveJobs counts the computations c has admitted and not finished.
func liveJobs(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// TestBackpressure429: with the single worker busy and the one queue
// slot taken, the next distinct request must be rejected with 429 +
// Retry-After.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueLen: 1})
	release := occupy(t, s.cache, 2)
	resp, _ := postJSON(t, ts.URL+"/v1/allocate", allocBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	release()
	// Once drained, the same request must succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/allocate", allocBody)
		if resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request still rejected after drain: %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSimulateTimeoutCancelsAndUnwinds: a simulation request whose
// deadline expires must answer 504, cancel the job, and unwind every
// rank goroutine.
func TestSimulateTimeoutCancelsAndUnwinds(t *testing.T) {
	_, ts := testServer(t, Options{})
	// Warm up the keep-alive connection first so its client/server
	// goroutines are part of the baseline.
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	base := runtime.NumGoroutine()
	big := `{
	  "densitySteps": 50,
	  "rotationPerStep": 0.001,
	  "instances": [
	    {"name": "row1", "kind": "mgcfd", "meshCells": 262144, "ranks": 4, "seed": 1},
	    {"name": "row2", "kind": "mgcfd", "meshCells": 262144, "ranks": 4, "seed": 2}
	  ],
	  "units": [
	    {"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 2000, "ranks": 2, "search": "tree"}
	  ]
	}`
	resp, body := postJSON(t, ts.URL+"/v1/simulate?timeout=25ms", big)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	// All rank goroutines (and the pool job) must unwind; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after timeout: %d now, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	// The failed job must not have been cached: a retry with a long
	// deadline recomputes and succeeds.
	resp, body = postJSON(t, ts.URL+"/v1/simulate?timeout=2m", big)
	if resp.StatusCode != 200 {
		t.Fatalf("retry after timeout: %d (%s)", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("retry X-Cache = %q, want miss (errors must not be cached)", xc)
	}
}

// TestSingleflightJoin: concurrent identical requests share one
// computation; joiners see X-Cache: join and identical bytes.
func TestSingleflightJoin(t *testing.T) {
	_, ts := testServer(t, Options{})
	const n = 8
	bodies := make([][]byte, n)
	outcomes := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody))
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i] = b
			outcomes[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	miss, join, hit := 0, 0, 0
	for i := range outcomes {
		switch outcomes[i] {
		case "miss":
			miss++
		case "join":
			join++
		case "hit":
			hit++
		default:
			t.Fatalf("request %d outcome %q, body %s", i, outcomes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d bytes differ", i)
		}
	}
	if miss != 1 {
		t.Errorf("misses = %d, want exactly 1 (others join or hit); join=%d hit=%d", miss, join, hit)
	}
}

// TestMetricsExposition checks counters appear and the format parses
// line-wise.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Options{})
	postJSON(t, ts.URL+"/v1/allocate", allocBody)
	postJSON(t, ts.URL+"/v1/allocate", allocBody)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		`cpxserve_requests_total{endpoint="/v1/allocate",code="200"} 2`,
		"cpxserve_cache_hits_total 1",
		"cpxserve_cache_misses_total 1",
		"cpxserve_queue_capacity 16",
		"cpxserve_request_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestGracefulClose: Close drains queued and running work before
// returning, and refuses work after.
func TestGracefulClose(t *testing.T) {
	c := NewCache(CacheConfig{Workers: 2, QueueLen: 6})
	release := occupy(t, c, 8)
	go func() {
		time.Sleep(5 * time.Millisecond)
		release()
	}()
	c.Close()
	if n := c.Len(); n != 8 {
		t.Fatalf("Close returned with %d/8 jobs done", n)
	}
	if _, _, err := c.Do(context.Background(), "late", false, nil, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do after Close: %v, want ErrQueueFull", err)
	}
}

// TestAbandonedQueuedJobFreesItsSlot: a request whose deadline expires
// while its job is still queued gives the queue slot back at once, so
// the next, unrelated request is queued behind the busy worker instead
// of refused with 429.
func TestAbandonedQueuedJobFreesItsSlot(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueLen: 1})
	release := occupy(t, s.cache, 1)
	resp, body := postJSON(t, ts.URL+"/v1/simulate?timeout=50ms", simBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued simulate: %d (%s), want 504", resp.StatusCode, body)
	}
	if d := s.cache.Depth(); d != 0 {
		t.Errorf("queue depth %d after its only job was abandoned, want 0", d)
	}
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(allocBody))
		if err != nil {
			answered <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); liveJobs(s.cache) < 2; time.Sleep(time.Millisecond) {
		select {
		case code := <-answered:
			t.Fatalf("allocate answered %d while the worker was busy, want it queued", code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("allocate never admitted")
		}
	}
	if d := s.cache.Depth(); d != 1 {
		t.Errorf("queue depth %d with the allocation queued, want 1", d)
	}
	release()
	if code := <-answered; code != http.StatusOK {
		t.Fatalf("queued allocate answered %d, want 200", code)
	}
}

// TestCacheAbandonedQueuedJobNeverRuns: at the cache, the abandoned
// queued job leaves the queue with its last waiter, the slot takes the
// next job, and the abandoned compute is never called.
func TestCacheAbandonedQueuedJobNeverRuns(t *testing.T) {
	c := NewCache(CacheConfig{Workers: 1, QueueLen: 1})
	release := occupy(t, c, 1)
	var ran atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "abandoned", false, nil, func(context.Context, func(float64)) ([]byte, error) {
		ran.Store(true)
		return []byte("nobody"), nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoning caller: %v, want context.DeadlineExceeded", err)
	}
	if d := c.Depth(); d != 0 {
		t.Errorf("queue depth %d after its only job was abandoned, want 0", d)
	}
	next := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "next", false, nil, func(context.Context, func(float64)) ([]byte, error) {
			return []byte("next"), nil
		})
		next <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Depth() == 0; time.Sleep(time.Millisecond) {
		select {
		case err := <-next:
			t.Fatalf("next job returned %v while the worker was busy, want it queued", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("next job never queued")
		}
	}
	release()
	if err := <-next; err != nil {
		t.Fatalf("next job: %v", err)
	}
	c.Close()
	if ran.Load() {
		t.Error("the abandoned job's compute ran")
	}
}

// TestCacheDoErrorNotCached: a failing compute is retried by the next
// identical request.
func TestCacheDoErrorNotCached(t *testing.T) {
	c := NewCache(CacheConfig{})
	calls := 0
	compute := func(context.Context, func(float64)) ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return []byte("ok"), nil
	}
	if _, _, err := c.Do(context.Background(), "k", false, nil, compute); err == nil {
		t.Fatal("first Do did not fail")
	}
	body, outcome, err := c.Do(context.Background(), "k", false, nil, compute)
	if err != nil || string(body) != "ok" {
		t.Fatalf("retry: %q %v", body, err)
	}
	if outcome != OutcomeMiss {
		t.Fatalf("retry outcome %v, want miss", outcome)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestCacheRetryDoesNotJoinAbandonedJob: once its last waiter has left, a
// job is cancelled but may take a while to unwind; an identical request
// arriving in that window starts a computation of its own rather than
// joining the doomed one and inheriting its context.Canceled.
func TestCacheRetryDoesNotJoinAbandonedJob(t *testing.T) {
	// Two workers: the doomed job holds one until it unwinds.
	c := NewCache(CacheConfig{Workers: 2})
	unwind := make(chan struct{}) // holds the abandoned computation in flight
	unwound := make(chan struct{})
	doomed := func(ctx context.Context, _ func(float64)) ([]byte, error) {
		defer close(unwound)
		<-ctx.Done()
		<-unwind
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", false, nil, doomed); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller: %v, want its own context.Canceled", err)
	}
	// The deadline only bounds the failure: joined to the abandoned job,
	// the retry would wait on it for ever.
	retry, stop := context.WithTimeout(context.Background(), 2*time.Second)
	defer stop()
	body, outcome, err := c.Do(retry, "k", false, nil, func(context.Context, func(float64)) ([]byte, error) {
		return []byte("mine"), nil
	})
	if err != nil || string(body) != "mine" || outcome != OutcomeMiss {
		t.Fatalf("retry beside the abandoned job: %q %v %v, want its own result as a miss", body, outcome, err)
	}
	// The abandoned job's late return must not disturb what replaced it.
	close(unwind)
	<-unwound
	if body, outcome, err = c.Do(context.Background(), "k", false, nil, nil); err != nil || string(body) != "mine" || outcome != OutcomeHit {
		t.Fatalf("after the abandoned job returned: %q %v %v, want the retry's artifact as a hit", body, outcome, err)
	}
}
