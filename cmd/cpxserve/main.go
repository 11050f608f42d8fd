// Command cpxserve runs the CPX prediction/simulation service: an HTTP
// JSON API over the empirical performance model (fit PE curves, run the
// Algorithm 1 allocation, predict speedups) and the virtual-time coupled
// simulator (full scenario jobs, the cpxsim -config schema as the
// request body).
//
// Usage:
//
//	cpxserve -addr :8080
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
// scenarios always land where the cache is warm (a forwarded job carries
// the caller's remaining deadline); dead shards degrade to the next arc
// or to local execution. SIGINT/SIGTERM trigger a graceful shutdown that
// drains in-flight jobs.
//
// The binary only serves. Its end-to-end self-tests are ordinary tests
// in main_test.go (go test ./cmd/cpxserve), one of which builds this
// binary and drives two real shard processes.
package main

import (
	"context"
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
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logFormat, *verbose)
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
	if err := runServer(*addr, *portFile, opts); err != nil {
		logger.Error("server failed", "error", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger: structured lines on w in the
// chosen format.
func newLogger(w io.Writer, format string, verbose bool) (*slog.Logger, error) {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	ho := &slog.HandlerOptions{Level: level}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, ho)), nil
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
