# Developer entry points. `make check` is the CI gate, seven legs: vet,
# the cpxlint static-analysis suite, build, the full test suite (which
# holds the service's end-to-end self-tests, cmd/cpxserve/main_test.go,
# and the quick particle-scaling experiment), the race detector over the
# concurrency-heavy packages, the short-mode race leg, and one iteration
# of every `go test` benchmark so a change that breaks one fails loudly.

GO ?= go

.PHONY: check vet lint lint-baseline build test test-race test-race-short race bench-smoke bench bench-compare bench-trace bench-mpi bench-fault bench-serve bench-telemetry bench-particle bench-lint

check: vet lint build test race test-race-short bench-smoke

vet:
	$(GO) vet ./...

# cpxlint enforces the determinism, mpiuse, poolsafety, floatreduce,
# commmatch and hotalloc invariants plus the perfgate compiler-fact
# gate (see internal/analysis); exits non-zero on any diagnostic that
# has neither a reviewed //lint:allow suppression nor an entry in the
# checked-in lint.baseline.json.
lint:
	$(GO) run ./cmd/cpxlint -baseline lint.baseline.json .

# Refresh the accepted-findings baseline after a reviewed change.
lint-baseline:
	$(GO) run ./cmd/cpxlint -write-baseline lint.baseline.json .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/mpi/ ./internal/trace/

# Race-detect the whole module (slower than the targeted `race` gate).
test-race:
	$(GO) test -race ./...

# Short-mode race leg for the runtime, coupling and serving layers:
# cheap enough for `make check`, still crosses the goroutine-per-rank
# scheduler, the coupler's exchange phases and the HTTP job registry.
test-race-short:
	$(GO) test -race -short ./internal/mpi/ ./internal/coupler/ ./internal/serve/ ./cmd/cpxserve/

# One iteration of every runtime benchmark — the mpi runtime, the
# coupler's donor index and resilience cycle, the coupled particle run:
# catches benchmarks that no longer compile or run, without the cost of
# a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mpi/ ./internal/coupler/ ./internal/particle/

# The repository's host-time benchmark (bench/README.md): all four
# workloads, results to .bench_out.json. About 2 min on a 2-core host.
bench:
	$(GO) run ./bench -workload all -out .bench_out.json

# Judge two `make bench` outputs against the bounds the benchmark fixes:
#   make bench-compare A=before.json B=after.json
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Re-measure the tracing overhead baseline recorded in BENCH_trace.json.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkRunTrace' -benchmem -count 5 ./internal/mpi/

# Re-measure the host fast-path baselines recorded in BENCH_mpi.json.
bench-mpi:
	$(GO) test -run '^$$' -bench 'BenchmarkRunP2P|BenchmarkRunCollectives' -benchmem -count 5 ./internal/mpi/

# Re-measure the resilience benchmarks (checkpointed run + full
# crash-recovery cycle) recorded in BENCH_fault.json.
bench-fault:
	$(GO) test -run '^$$' -bench 'BenchmarkRunResilient' -benchmem -count 5 ./internal/coupler/

# Re-measure the virtual-time metrics-sampling overhead recorded in
# BENCH_telemetry.json (metrics on vs off at 8/64/512 ranks).
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkRunMetrics' -benchmem -count 5 ./internal/mpi/

# Re-measure the serving baselines recorded in BENCH_serve.json (cached
# vs uncached request path, plus the 1024-concurrent sweep vs pointwise
# comparison) and BENCH_perfmodel.json (Alg. 1 fast path vs the
# reference implementation).
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem -count 5 ./internal/serve/
	$(GO) test -run '^$$' -bench 'BenchmarkAllocate' -benchmem -count 5 ./internal/perfmodel/

# Re-measure the coupled flow+particle host cost recorded in
# BENCH_particle.json (per strategy at 8/64/512 particle ranks).
bench-particle:
	$(GO) test -run '^$$' -bench 'BenchmarkRunParticle' -benchmem -count 5 ./internal/particle/

# Time the full cpxlint sweep (wall clock recorded in BENCH_lint.json).
bench-lint:
	time $(GO) run ./cmd/cpxlint -baseline lint.baseline.json .
