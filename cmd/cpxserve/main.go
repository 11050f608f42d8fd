// Command cpxserve runs the CPX prediction/simulation service: an HTTP
// JSON API over the empirical performance model (fit PE curves, run the
// Algorithm 1 allocation, predict speedups) and the virtual-time coupled
// simulator (full scenario jobs, the cpxsim -config schema as the
// request body).
//
// Usage:
//
//	cpxserve -addr :8080
//	cpxserve -smoke        # self-test against an ephemeral port and exit
//
// Endpoints:
//
//	GET  /healthz             liveness + queue/cache gauges
//	GET  /metrics             Prometheus text exposition
//	GET  /v1/jobs             registry listing (every request is a job)
//	GET  /v1/jobs/{id}        one job's state and progress
//	GET  /v1/jobs/{id}/events live progress stream (Server-Sent Events)
//	POST /v1/fit              {"samples": [{"cores": 100, "runtime": 30}, ...]}
//	POST /v1/allocate         {"budget": 40000, "components": [...]}
//	POST /v1/speedup          {"budget": 40000, "base": [...], "optimized": [...]}
//	POST /v1/simulate         a cpxsim scenario (+ "seedOffset")
//	POST /v1/sweep            a scenario template + parameter ranges,
//	                          expanded server-side, streamed as NDJSON
//
// Every request is assigned a job ID (returned in the X-Job-ID header
// and in JSON error bodies) and tracked in the registry behind
// /v1/jobs. Structured logs go to stderr; -log selects text or JSON
// lines, -v enables debug events.
//
// A ?timeout=30s query parameter sets the per-request deadline; when it
// expires the job is cancelled and every rank goroutine unwinds. The
// worker pool is bounded: a full queue answers 429 with a Retry-After
// computed from queue depth and observed job latency. Identical
// requests are served from a content-addressed cache with the
// byte-identical artifact — sound because the model and the simulator
// are deterministic. The in-memory cache is LRU-bounded (-cache-bytes)
// and optionally backed by a persistent disk tier (-cache-dir) that
// survives restarts. With -shards, simulation jobs are routed to worker
// processes by consistent hashing of the cache key, so identical
// scenarios always land where the cache is warm; dead shards degrade to
// the next arc or to local execution. SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight jobs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cpx/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = default 4)")
	queue := flag.Int("queue", 0, "job queue length (0 = default 16)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 60s)")
	logFormat := flag.String("log", "text", "structured log format: text or json")
	verbose := flag.Bool("v", false, "log debug events (job admitted / job running)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory result cache budget in bytes (0 = default 256 MiB)")
	cacheDir := flag.String("cache-dir", "", "persistent disk cache directory (empty = memory tier only)")
	shards := flag.String("shards", "", "comma-separated worker shard base URLs; simulate jobs route by cache key")
	shardProbe := flag.Duration("shard-probe", 0, "shard health probe interval (0 = 2s)")
	sweepWorkers := flag.Int("sweep-workers", 0, "concurrent sweep points (0 = 2x workers)")
	portFile := flag.String("port-file", "", "write the bound listen address to this file once serving")
	smoke := flag.Bool("smoke", false, "self-test against an ephemeral port, then exit")
	smokeSweep := flag.Bool("smoke-sweep", false, "spawn two shard processes and self-test sweep routing, then exit")
	flag.Parse()

	logger, err := newLogger(*logFormat, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpxserve: %v\n", err)
		os.Exit(1)
	}
	opts := serve.Options{
		Workers: *workers, QueueLen: *queue, DefaultTimeout: *timeout, Logger: logger,
		CacheMaxBytes: *cacheBytes, CacheDir: *cacheDir, SweepWorkers: *sweepWorkers,
		ShardProbeInterval: *shardProbe,
	}
	if *shards != "" {
		for _, u := range strings.Split(*shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				opts.Shards = append(opts.Shards, u)
			}
		}
	}
	if *smoke {
		if err := runSmoke(opts); err != nil {
			fmt.Fprintf(os.Stderr, "cpxserve: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("cpxserve: smoke OK")
		return
	}
	if *smokeSweep {
		if err := runSweepSmoke(opts, spawnShardProcess); err != nil {
			fmt.Fprintf(os.Stderr, "cpxserve: sweep smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("cpxserve: sweep smoke OK")
		return
	}
	if err := runServer(*addr, *portFile, opts); err != nil {
		logger.Error("server failed", "error", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger: structured lines on stderr in
// the chosen format.
func newLogger(format string, verbose bool) (*slog.Logger, error) {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	ho := &slog.HandlerOptions{Level: level}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text or json)", format)
	}
}

// runServer serves until SIGINT/SIGTERM, then shuts down gracefully:
// stop accepting, let in-flight handlers finish, drain the pool. With
// portFile set, the bound address is published there (atomic rename)
// once the listener is up, so a parent that launched us on an ephemeral
// port can discover it.
func runServer(addr, portFile string, opts serve.Options) error {
	s := serve.New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return err
	}
	if portFile != "" {
		tmp := portFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			s.Close()
			return err
		}
		if err := os.Rename(tmp, portFile); err != nil {
			s.Close()
			return err
		}
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	opts.Logger.Info("listening", "addr", ln.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-sig:
	}
	opts.Logger.Info("shutting down, draining jobs")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	s.Close()
	return err
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
