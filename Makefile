# Developer entry points. `make check` is the CI gate, five legs: vet,
# build, the full test suite (which holds the static-analysis suite over
# the whole module, internal/analysis TestModuleLintsClean, the service's
# end-to-end self-tests, cmd/cpxserve/main_test.go, and the quick
# particle-scaling experiment), the race detector over the
# concurrency-heavy packages, and the short-mode race leg. Host time has
# one benchmark, bench/ (`make bench`, `make bench-compare`).

GO ?= go

.PHONY: check vet lint build test test-race test-race-short race bench bench-compare

check: vet build test race test-race-short

vet:
	$(GO) vet ./...

# cpxlint prints what `make test` enforces: the determinism, mpiuse,
# floatreduce and hotalloc analyzers plus the perfgate compiler-fact
# gate (see internal/analysis); exits non-zero on any diagnostic
# without a reviewed //lint:allow suppression.
lint:
	$(GO) run ./cmd/cpxlint .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector builds also arm the payload use-after-release oracle
# (internal/mpi/poison_race.go): Comm.Release fills the buffer with NaN
# and panics on a second release, so both race legs run their suites,
# the coupled golden digests among them, poisoned.
race:
	$(GO) test -race ./internal/mpi/ ./internal/trace/

# Race-detect the whole module (slower than the targeted `race` gate).
test-race:
	$(GO) test -race ./...

# Short-mode race leg for the runtime, solver, coupling and serving
# layers: cheap enough for `make check`, still crosses the
# goroutine-per-rank scheduler, the coupler's exchange phases and the
# HTTP job registry. The solver packages are here because the race
# detector is the proof that the set-up state a run's ranks share
# (mpi.Shared: operators, hierarchies, edge lists) is never written.
test-race-short:
	$(GO) test -race -short ./internal/mpi/ ./internal/amg/ ./internal/pressure/ ./internal/mgcfd/ ./internal/harness/ \
		./internal/coupler/ ./internal/serve/ ./cmd/cpxserve/

# The repository's host-time benchmark (bench/README.md): all four
# workloads, results to .bench_out.json. About 2 min on a 2-core host.
bench:
	$(GO) run ./bench -workload all -out .bench_out.json

# Judge two `make bench` outputs against the bounds the benchmark fixes:
#   make bench-compare A=before.json B=after.json
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)
