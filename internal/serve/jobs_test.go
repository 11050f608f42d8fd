package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	view JobView
}

// readSSE parses a text/event-stream body into events until EOF.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.view); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events
}

// slowSimBody is large enough that the simulation runs for an
// observable stretch of host time while crossing many virtual-time
// sampling boundaries.
const slowSimBody = `{
  "densitySteps": 40,
  "rotationPerStep": 0.001,
  "instances": [
    {"name": "row1", "kind": "mgcfd", "meshCells": 262144, "ranks": 4, "seed": 1},
    {"name": "row2", "kind": "mgcfd", "meshCells": 262144, "ranks": 4, "seed": 2}
  ],
  "units": [
    {"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 2000, "ranks": 2, "search": "tree"}
  ]
}`

// TestJobObservableEndToEnd drives the full live-telemetry path: an
// in-flight /v1/simulate job must appear in GET /v1/jobs, stream
// monotone virtual-time progress over SSE before it completes, and
// land in the registry and Prometheus exposition as done.
func TestJobObservableEndToEnd(t *testing.T) {
	_, ts := testServer(t, Options{ProgressInterval: 1e-4})

	type result struct {
		resp *http.Response
		body []byte
	}
	doneCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(slowSimBody))
		if err != nil {
			t.Error(err)
			doneCh <- result{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		doneCh <- result{resp, b}
	}()

	// The job must become listable while in flight.
	var jobID string
	deadline := time.Now().Add(10 * time.Second)
	for jobID == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never appeared in GET /v1/jobs")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []JobView `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, jv := range list.Jobs {
			if jv.Endpoint == "/v1/simulate" {
				jobID = jv.ID
			}
		}
		if jobID == "" {
			time.Sleep(time.Millisecond)
		}
	}

	// Stream its events until the terminal "done" event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event %q, want done", last.name)
	}
	progressed := 0
	prevVT := -1.0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before done", ev.name)
		}
		if ev.view.VirtualTime < prevVT {
			t.Fatalf("virtual time regressed: %v after %v", ev.view.VirtualTime, prevVT)
		}
		prevVT = ev.view.VirtualTime
		if ev.view.VirtualTime > 0 && ev.view.State == JobRunning {
			progressed++
		}
	}
	if progressed == 0 {
		t.Errorf("no progress event with positive virtual time arrived before completion (%d events)", len(events))
	}
	if last.view.State != JobDone {
		t.Errorf("terminal state %q, want done", last.view.State)
	}
	if last.view.VirtualTime <= 0 {
		t.Errorf("terminal virtual time %v, want > 0", last.view.VirtualTime)
	}

	res := <-doneCh
	if res.resp == nil {
		t.Fatal("simulate request failed")
	}
	if res.resp.StatusCode != 200 {
		t.Fatalf("simulate: %d %s", res.resp.StatusCode, res.body)
	}
	if got := res.resp.Header.Get("X-Job-ID"); got != jobID {
		t.Errorf("X-Job-ID = %q, want %q", got, jobID)
	}

	// Completion must be visible in the registry...
	resp, err = http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.State != JobDone || jv.Cache != OutcomeMiss || jv.Code != 200 {
		t.Errorf("registry view after completion: %+v", jv)
	}
	// ...and in the Prometheus exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cpxserve_jobs_finished_total{state="done"} 1`,
		"cpxserve_jobs_active 0",
		"cpxserve_jobs_retained 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// An unknown job ID answers 404 with a JSON error body.
	resp, err = http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestJoinerViewsItsComputation: a request that joins an identical
// in-flight simulation reads that computation's state and virtual time,
// in GET /v1/jobs/{id} and over SSE, and finishes with the virtual time
// of the request that started it. A starter that abandons the
// computation (?timeout=) while the joiner stays keeps, once finished,
// the record it had when it left.
func TestJoinerViewsItsComputation(t *testing.T) {
	// About a second of host time: long enough to be watched computing.
	body := strings.Replace(slowSimBody, `"densitySteps": 40`, `"densitySteps": 800`, 1)
	var req SimulateRequest
	if err := DecodeStrict(strings.NewReader(body), &req); err != nil {
		t.Fatal(err)
	}
	canonical, err := canonicalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey("/v1/simulate", canonical)

	type reply struct {
		code  int
		cache string
	}
	post := func(url string) <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				ch <- reply{}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ch <- reply{resp.StatusCode, resp.Header.Get("X-Cache")}
		}()
		return ch
	}
	getJob := func(url string) JobView {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	for _, abandon := range []bool{false, true} {
		t.Run(fmt.Sprintf("abandon=%v", abandon), func(t *testing.T) {
			s, ts := testServer(t, Options{Workers: 1, ProgressInterval: 1e-4})
			// Hold the one worker, so the computation stays queued until
			// both requests wait on it.
			release := occupy(t, s.cache, 1)
			waitRefs := func(n int) {
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					s.cache.mu.Lock()
					refs := 0
					if j := s.cache.live[key]; j != nil {
						refs = j.refs
					}
					s.cache.mu.Unlock()
					if refs == n {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d requests wait on the computation, want %d", refs, n)
					}
				}
			}
			starterURL := ts.URL + "/v1/simulate"
			if abandon {
				starterURL += "?timeout=400ms"
			}
			starterReply := post(starterURL)
			waitRefs(1)
			joinerReply := post(ts.URL + "/v1/simulate")
			waitRefs(2)
			var ids []string
			for _, v := range s.registry.List() {
				if v.Endpoint == "/v1/simulate" {
					ids = append(ids, v.ID)
				}
			}
			if len(ids) != 2 {
				t.Fatalf("%d /v1/simulate jobs listed, want 2", len(ids))
			}
			starter, joiner := s.registry.Get(ids[0]), s.registry.Get(ids[1])

			resp, err := http.Get(ts.URL + "/v1/jobs/" + joiner.ID() + "/events")
			if err != nil {
				t.Fatal(err)
			}
			stream := make(chan []byte, 1)
			go func() {
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				stream <- b
			}()
			release()

			var frozen JobView
			if abandon {
				<-starter.Done()
				frozen = starter.View()
				if frozen.State != JobCanceled || frozen.Code != http.StatusGatewayTimeout {
					t.Fatalf("abandoning starter's record %+v, want canceled with 504", frozen)
				}
			}
			for {
				v := getJob(ts.URL + "/v1/jobs/" + joiner.ID())
				if v.State == JobRunning && v.VirtualTime > 0 {
					break
				}
				select {
				case <-joiner.Done():
					t.Fatalf("the joiner finished without reading its computation running: %+v", v)
				case <-time.After(time.Millisecond):
				}
			}

			if r := <-joinerReply; r.code != http.StatusOK || r.cache != string(OutcomeJoin) {
				t.Fatalf("joiner: %d, X-Cache %q; want 200, join", r.code, r.cache)
			}
			r := <-starterReply
			<-starter.Done()
			<-joiner.Done()
			final := joiner.View()
			if final.VirtualTime <= 0 {
				t.Fatalf("joiner's finished record %+v has no virtual time", final)
			}
			if abandon {
				if got := starter.View(); got != frozen {
					t.Errorf("the abandoning starter's finished record changed:\n%+v\nthen\n%+v", frozen, got)
				}
				if frozen.VirtualTime >= final.VirtualTime {
					t.Errorf("the starter left at virtual time %v, not before the end %v", frozen.VirtualTime, final.VirtualTime)
				}
			} else {
				if r.code != http.StatusOK || r.cache != string(OutcomeMiss) {
					t.Fatalf("starter: %d, X-Cache %q; want 200, miss", r.code, r.cache)
				}
				if got := starter.View().VirtualTime; got != final.VirtualTime {
					t.Errorf("starter finished at virtual time %v, joiner at %v", got, final.VirtualTime)
				}
			}

			events := readSSE(t, bytes.NewReader(<-stream))
			watched := false
			for _, ev := range events {
				watched = watched || (ev.name == "progress" && ev.view.State == JobRunning && ev.view.VirtualTime > 0)
			}
			if !watched || events[len(events)-1].name != "done" {
				t.Errorf("joiner's event stream sent no running progress with virtual time, or did not end done: %+v", events)
			}
		})
	}
}

// TestErrorBodiesCarryJobID: every JSON error body — including the
// backpressure 429 — names the job ID so the failure correlates with
// the registry, logs and metrics.
func TestErrorBodiesCarryJobID(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueLen: 1})

	type errBody struct {
		Error  string `json:"error"`
		JobID  string `json:"jobId"`
		Status int    `json:"status"`
	}
	decode := func(t *testing.T, b []byte) errBody {
		t.Helper()
		var eb errBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Fatalf("error body is not JSON: %q (%v)", b, err)
		}
		return eb
	}

	// 400: malformed request.
	resp, body := postJSON(t, ts.URL+"/v1/allocate", `{"budget": `)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	eb := decode(t, body)
	if eb.JobID == "" || eb.Error == "" || eb.Status != http.StatusBadRequest {
		t.Errorf("400 body incomplete: %+v", eb)
	}
	if hdr := resp.Header.Get("X-Job-ID"); hdr != eb.JobID {
		t.Errorf("X-Job-ID header %q != body jobId %q", hdr, eb.JobID)
	}
	if jb := s.registry.Get(eb.JobID); jb == nil {
		t.Errorf("failed job %s not in registry", eb.JobID)
	} else if v := jb.View(); v.State != JobFailed {
		t.Errorf("failed job state %q, want failed", v.State)
	}

	// 429: occupy the worker and the queue, then submit.
	release := occupy(t, s.cache, 2)
	resp, body = postJSON(t, ts.URL+"/v1/allocate", allocBody)
	release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	eb = decode(t, body)
	if eb.JobID == "" || eb.Status != http.StatusTooManyRequests {
		t.Errorf("429 body incomplete: %+v", eb)
	}
	if jb := s.registry.Get(eb.JobID); jb == nil {
		t.Errorf("rejected job %s not in registry", eb.JobID)
	} else if v := jb.View(); v.State != JobRejected {
		t.Errorf("rejected job state %q, want rejected", v.State)
	}
}

// TestPrometheusExpositionConformance parses the scrape line-wise and
// enforces the text-format invariants: HELP and TYPE precede every
// family's samples, no family is declared twice, histogram buckets are
// cumulative and end in a +Inf bucket equal to the count.
func TestPrometheusExpositionConformance(t *testing.T) {
	_, ts := testServer(t, Options{})
	// Populate: successes, a cache hit, and a failure.
	postJSON(t, ts.URL+"/v1/allocate", allocBody)
	postJSON(t, ts.URL+"/v1/allocate", allocBody)
	postJSON(t, ts.URL+"/v1/allocate", `{"budget": `)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	family := func(sample string) string {
		name := sample
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		return name
	}

	helped := map[string]bool{}
	typed := map[string]string{}
	type bucketKey struct{ family, labels string }
	lastBucket := map[bucketKey]float64{}
	infSeen := map[bucketKey]bool{}
	counts := map[bucketKey]float64{}

	for _, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)[2]
			if helped[f] {
				t.Errorf("duplicate HELP for family %s", f)
			}
			helped[f] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			f, typ := fields[2], fields[3]
			if _, dup := typed[f]; dup {
				t.Errorf("duplicate TYPE for family %s", f)
			}
			if !helped[f] {
				t.Errorf("TYPE for %s precedes its HELP", f)
			}
			typed[f] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unrecognised comment line %q", line)
			continue
		}
		// Sample line.
		fam := family(line)
		if !helped[fam] || typed[fam] == "" {
			t.Errorf("sample %q has no preceding HELP+TYPE for family %s", line, fam)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q value: %v", line, err)
		}
		if (typed[fam] == "counter" || typed[fam] == "histogram") && val < 0 {
			t.Errorf("negative %s sample %q", typed[fam], line)
		}
		if typed[fam] != "histogram" {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		labels := line[len(name):sp]
		switch {
		case strings.HasSuffix(name, "_bucket"):
			// Strip the le label: buckets of one series share the rest.
			le := ""
			rest := labels
			if i := strings.Index(labels, `le="`); i >= 0 {
				j := strings.IndexByte(labels[i+4:], '"')
				le = labels[i+4 : i+4+j]
				rest = strings.ReplaceAll(labels[:i]+labels[i+4+j+1:], ",}", "}")
			}
			k := bucketKey{fam, rest}
			if val < lastBucket[k] {
				t.Errorf("histogram %s buckets not cumulative at le=%q: %v < %v", fam, le, val, lastBucket[k])
			}
			lastBucket[k] = val
			if le == "+Inf" {
				infSeen[k] = true
			}
		case strings.HasSuffix(name, "_count"):
			counts[bucketKey{fam, labels}] = val
		}
	}
	if len(typed) == 0 {
		t.Fatal("no families scraped")
	}
	for k, n := range counts {
		if !infSeen[k] {
			t.Errorf("histogram series %s%s has no +Inf bucket", k.family, k.labels)
		}
		if lastBucket[k] != n {
			t.Errorf("histogram series %s%s: +Inf bucket %v != count %v", k.family, k.labels, lastBucket[k], n)
		}
	}
	// The job-registry families must be present.
	for _, fam := range []string{"cpxserve_jobs_active", "cpxserve_jobs_retained", "cpxserve_jobs_finished_total"} {
		if typed[fam] == "" {
			t.Errorf("missing family %s", fam)
		}
	}
}

// TestProgressObserveAllocatesNothing: a computation's virtual-time mark
// advances on every telemetry sample of every rank, so it must not
// allocate.
func TestProgressObserveAllocatesNothing(t *testing.T) {
	var j job
	vt := 0.0
	if n := testing.AllocsPerRun(1000, func() { vt++; j.observe(vt); j.observe(vt - 0.5) }); n != 0 {
		t.Errorf("observe allocates %v times a sample", n)
	}
}
