package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/serve"
)

// The service's end-to-end self-tests: against in-process servers
// (TestRunSmoke, TestRunSweepSmoke) and against the built binary
// (TestShardProcesses).

// TestRunSmoke drives the full serving path over real HTTP against the
// small cluster model: once quietly, once through the -log json -v
// logger, whose every line must parse and whose "job finished" records
// must carry the fields a log pipeline joins on.
func TestRunSmoke(t *testing.T) {
	if err := runSmoke(serve.Options{Machine: cluster.SmallCluster()}); err != nil {
		t.Fatal(err)
	}

	var logs lockedBuffer
	logger, err := newLogger(&logs, "json", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := runSmoke(serve.Options{Machine: cluster.SmallCluster(), Logger: logger}); err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] != "job finished" {
			continue
		}
		finished++
		for _, field := range []string{"job", "endpoint", "code"} {
			if _, ok := rec[field]; !ok {
				t.Errorf("job finished record lacks %q: %s", field, line)
			}
		}
	}
	if finished == 0 {
		t.Error("no job finished record in the JSON log")
	}
}

// lockedBuffer is a log sink safe to read while request handlers may
// still be writing their last record.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunSweepSmoke runs the scale-out pass — two shards fronted by a
// cache-key router, the same sweep twice, stable routing and
// byte-identical artifacts — with the shards as in-process servers.
func TestRunSweepSmoke(t *testing.T) {
	spawn := func(dir string) (string, func(), error) {
		s := serve.New(serve.Options{
			Workers:  2,
			CacheDir: filepath.Join(dir, "cache"),
			Machine:  cluster.SmallCluster(),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return "", nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		stop := func() {
			hs.Close()
			s.Close()
		}
		return "http://" + ln.Addr().String(), stop, nil
	}
	if err := runSweepSmoke(serve.Options{Machine: cluster.SmallCluster()}, spawn); err != nil {
		t.Fatal(err)
	}
}

// TestShardProcesses runs the same scale-out pass against the real
// binary: it builds cpxserve, starts two shard processes that publish
// their ephemeral ports through -port-file, and requires both to exit 0
// on SIGINT (the graceful-shutdown path no in-process test reaches).
func TestShardProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the cpxserve binary")
	}
	bin := filepath.Join(t.TempDir(), "cpxserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	spawn := func(dir string) (string, func(), error) {
		return spawnShardProcess(t, bin, dir)
	}
	if err := runSweepSmoke(serve.Options{}, spawn); err != nil {
		t.Fatal(err)
	}
}

// runSmoke exercises the full serving path end to end on an ephemeral
// port: health, a demo allocation (miss, then byte-identical hit), a
// small coupled simulation, live job progress over SSE, and the
// metrics exposition.
func runSmoke(opts serve.Options) error {
	// A fine virtual-time sampling period so even the short smoke
	// simulation emits many progress observations.
	opts.ProgressInterval = 1e-4
	s := serve.New(opts)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			return "", fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b), nil
	}
	post := func(path, body string) ([]byte, string, error) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			return nil, "", fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, b)
		}
		return b, resp.Header.Get("X-Cache"), nil
	}

	if body, err := get("/healthz"); err != nil {
		return err
	} else if !strings.Contains(body, `"status":"ok"`) {
		return fmt.Errorf("healthz: %s", body)
	}

	allocBody, err := json.Marshal(serve.AllocateRequest{
		Budget:     10_000,
		Components: serve.DemoComponents(),
	})
	if err != nil {
		return err
	}
	first, oc1, err := post("/v1/allocate", string(allocBody))
	if err != nil {
		return err
	}
	if oc1 != "miss" {
		return fmt.Errorf("first allocation outcome %q, want miss", oc1)
	}
	second, oc2, err := post("/v1/allocate", string(allocBody))
	if err != nil {
		return err
	}
	if oc2 != "hit" {
		return fmt.Errorf("second allocation outcome %q, want hit", oc2)
	}
	if !bytes.Equal(first, second) {
		return errors.New("cached allocation not byte-identical")
	}

	simBody := `{
	  "densitySteps": 2, "rotationPerStep": 0.002,
	  "instances": [
	    {"name": "row1", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 1},
	    {"name": "row2", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 2}],
	  "units": [
	    {"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 2000, "ranks": 2, "search": "tree"}]
	}`
	if body, _, err := post("/v1/simulate", simBody); err != nil {
		return err
	} else if !bytes.Contains(body, []byte(`"elapsed"`)) {
		return fmt.Errorf("simulate response: %s", body)
	}

	if err := smokeJobStream(base); err != nil {
		return fmt.Errorf("job stream: %w", err)
	}

	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"cpxserve_cache_hits_total 1",
		`cpxserve_requests_total{endpoint="/v1/allocate",code="200"} 2`,
		`cpxserve_jobs_finished_total{state="done"}`,
		"cpxserve_jobs_active 0",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("metrics missing %q", want)
		}
	}
	return nil
}

// smokeJobStream submits a slow simulation and watches it live: the
// job must be listed in /v1/jobs while in flight, stream at least one
// positive-virtual-time progress event over SSE before it completes,
// and finish with a terminal "done" event.
func smokeJobStream(base string) error {
	slowSim := `{
	  "densitySteps": 40, "rotationPerStep": 0.001,
	  "instances": [
	    {"name": "row1", "kind": "mgcfd", "meshCells": 262144, "ranks": 4, "seed": 1},
	    {"name": "row2", "kind": "mgcfd", "meshCells": 262144, "ranks": 4, "seed": 2}],
	  "units": [
	    {"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 2000, "ranks": 2, "search": "tree"}]
	}`
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(slowSim))
		if err != nil {
			errc <- err
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			errc <- fmt.Errorf("slow simulate: %d %s", resp.StatusCode, b)
			return
		}
		errc <- nil
	}()

	// Find the in-flight job in the registry listing.
	var jobID string
	deadline := time.Now().Add(10 * time.Second)
	for jobID == "" {
		if time.Now().After(deadline) {
			return errors.New("slow job never appeared in /v1/jobs")
		}
		resp, err := http.Get(base + "/v1/jobs")
		if err != nil {
			return err
		}
		var list struct {
			Jobs []struct {
				ID       string `json:"id"`
				Endpoint string `json:"endpoint"`
				State    string `json:"state"`
			} `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			return err
		}
		for _, jv := range list.Jobs {
			if jv.Endpoint == "/v1/simulate" && (jv.State == "queued" || jv.State == "running") {
				jobID = jv.ID
			}
		}
		if jobID == "" {
			time.Sleep(time.Millisecond)
		}
	}

	// Stream its SSE events until "done".
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	progressed := false
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var view struct {
				State       string  `json:"state"`
				VirtualTime float64 `json:"virtual_time_s"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &view); err != nil {
				return fmt.Errorf("bad SSE data: %w", err)
			}
			if event == "progress" && view.State == "running" && view.VirtualTime > 0 {
				progressed = true
			}
			if event == "done" {
				if view.State != "done" {
					return fmt.Errorf("terminal state %q", view.State)
				}
				if !progressed {
					return errors.New("no live progress event arrived before completion")
				}
				return <-errc
			}
		}
	}
	return fmt.Errorf("SSE stream ended without a done event (scan err %v)", sc.Err())
}

// shardSpawner brings up one worker shard rooted at dir (scratch space
// for its disk cache and port file) and returns its base URL and a stop
// function.
type shardSpawner func(dir string) (url string, stop func(), err error)

// spawnShardProcess launches the cpxserve binary as a worker shard on an
// ephemeral port, discovering the bound address through -port-file. Its
// stop function interrupts the process and reports any exit but 0.
func spawnShardProcess(t *testing.T, bin, dir string) (string, func(), error) {
	portFile := filepath.Join(dir, "port")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-port-file", portFile,
		"-cache-dir", filepath.Join(dir, "cache"),
		"-workers", "2",
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop := func() {
		cmd.Process.Signal(os.Interrupt)
		if err := cmd.Wait(); err != nil {
			t.Errorf("shard %s did not exit 0 on SIGINT: %v\n%s", dir, err, stderr.String())
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			return "http://" + string(b), stop, nil
		}
		if time.Now().After(deadline) {
			stop()
			return "", nil, fmt.Errorf("shard %s never published its port", dir)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepSmokeBody is the sweep run by the scale-out tests: a small two-row coupled
// scenario swept over 2 seeds x 2 mesh scales = 4 distinct cache keys.
const sweepSmokeBody = `{
  "template": {
    "densitySteps": 2, "rotationPerStep": 0.002,
    "instances": [
      {"name": "row1", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 1},
      {"name": "row2", "kind": "mgcfd", "meshCells": 4096, "ranks": 4, "seed": 2}],
    "units": [
      {"name": "cu", "a": 0, "b": 1, "kind": "sliding", "points": 2000, "ranks": 2, "search": "tree"}]
  },
  "axes": {"seedOffsets": [1, 2], "meshScales": [1, 1.25]}
}`

// sweepResult is one sweep run, indexed by point.
type sweepResult struct {
	points  int
	shards  []string
	outcome []string
	body    [][]byte
}

// postSweep runs one sweep against base and collects the NDJSON stream.
func postSweep(base string) (*sweepResult, error) {
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(sweepSmokeBody))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := json.Marshal(resp.Header)
		return nil, fmt.Errorf("sweep: status %d (headers %s)", resp.StatusCode, b)
	}
	var res *sweepResult
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Sweep *struct {
				JobID  string `json:"jobId"`
				Points int    `json:"points"`
			} `json:"sweep"`
			Index  *int            `json:"index"`
			Cache  string          `json:"cache"`
			Shard  string          `json:"shard"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
			Done   *struct {
				Points int `json:"points"`
				OK     int `json:"ok"`
				Errors int `json:"errors"`
			} `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		switch {
		case line.Sweep != nil:
			res = &sweepResult{
				points:  line.Sweep.Points,
				shards:  make([]string, line.Sweep.Points),
				outcome: make([]string, line.Sweep.Points),
				body:    make([][]byte, line.Sweep.Points),
			}
		case line.Index != nil:
			if res == nil || *line.Index < 0 || *line.Index >= res.points {
				return nil, fmt.Errorf("point line out of order: %q", sc.Text())
			}
			if line.Error != "" {
				return nil, fmt.Errorf("point %d failed: %s", *line.Index, line.Error)
			}
			res.shards[*line.Index] = line.Shard
			res.outcome[*line.Index] = line.Cache
			res.body[*line.Index] = append([]byte(nil), line.Result...)
		case line.Done != nil:
			if line.Done.Errors != 0 || line.Done.OK != res.points {
				return nil, fmt.Errorf("sweep tally: %d ok, %d errors of %d", line.Done.OK, line.Done.Errors, res.points)
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if res == nil || !done {
		return nil, fmt.Errorf("sweep stream ended without header/trailer")
	}
	return res, nil
}

// runSweepSmoke brings up two shards via spawn, fronts them with a
// router built from opts, and checks routing stability and
// byte-identical artifacts across two identical sweeps.
func runSweepSmoke(opts serve.Options, spawn shardSpawner) error {
	root, err := os.MkdirTemp("", "cpxserve-sweep-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var shardURLs []string
	for i := 0; i < 2; i++ {
		dir := filepath.Join(root, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		u, stop, err := spawn(dir)
		if err != nil {
			return fmt.Errorf("spawn shard %d: %w", i, err)
		}
		defer stop()
		shardURLs = append(shardURLs, u)
	}

	opts.Shards = shardURLs
	opts.ShardProbeInterval = 200 * time.Millisecond
	opts.CacheDir = filepath.Join(root, "front-cache")
	s := serve.New(opts)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	run1, err := postSweep(base)
	if err != nil {
		return fmt.Errorf("first sweep: %w", err)
	}
	if run1.points != 4 {
		return fmt.Errorf("first sweep expanded %d points, want 4", run1.points)
	}
	for i, sh := range run1.shards {
		if sh == "" {
			return fmt.Errorf("point %d ran locally; want shard-routed (both shards healthy)", i)
		}
	}

	run2, err := postSweep(base)
	if err != nil {
		return fmt.Errorf("second sweep: %w", err)
	}
	if run2.points != run1.points {
		return fmt.Errorf("point count changed across runs: %d then %d", run1.points, run2.points)
	}
	for i := range run2.shards {
		if run2.shards[i] != run1.shards[i] {
			return fmt.Errorf("point %d moved shards across runs: %q then %q — routing must be stable",
				i, run1.shards[i], run2.shards[i])
		}
		if oc := run2.outcome[i]; oc != string(serve.OutcomeHit) && oc != string(serve.OutcomeDisk) {
			return fmt.Errorf("point %d re-run outcome %q, want a cache hit", i, oc)
		}
		if !bytes.Equal(run2.body[i], run1.body[i]) {
			return fmt.Errorf("point %d artifact differs across runs", i)
		}
	}

	// An individual /v1/simulate against the front-end must forward to
	// a shard too (same routing path as sweep points).
	var tmpl struct {
		Template json.RawMessage `json:"template"`
	}
	if err := json.Unmarshal([]byte(sweepSmokeBody), &tmpl); err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(tmpl.Template))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("forwarded simulate: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Shard") == "" {
		return fmt.Errorf("individual simulate did not forward to a shard (no X-Shard header)")
	}
	return nil
}
