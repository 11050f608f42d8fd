# Developer entry points. `make check` is the CI gate, six legs: vet,
# build, the full test suite (which holds the static-analysis suite over
# the whole module, internal/analysis TestModuleLintsClean, the service's
# end-to-end self-tests, cmd/cpxserve/main_test.go, and the nine quick
# experiments diffed against results/, cmd/cpxbench/main_test.go), the
# race detector over the concurrency-heavy packages, the short-mode race
# leg, and the five pressure sweeps diffed against results/. Host time
# has one benchmark, bench/ (`make bench`, `make bench-compare`).

GO ?= go

.PHONY: check vet lint build test test-race test-race-short race results bench bench-compare

check: vet build test race test-race-short results

vet:
	$(GO) vet ./...

# The lint leg of `make test` on its own: the determinism, mpiuse,
# floatreduce, hotalloc and unused analyzers (see internal/analysis) over
# the module. Fails on any diagnostic without a reviewed //lint:allow
# suppression; -v lists the suppressed.
lint:
	$(GO) test -count=1 -run TestModuleLintsClean -v ./internal/analysis

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector builds also arm the payload use-after-release oracle
# (internal/mpi/poison_race.go): Comm.Release fills the buffer with NaN
# and panics on a second release, so both race legs run their suites,
# the coupled golden digests among them, poisoned. telemetry is here
# because its collector is fed from rank goroutines and, inside a
# replayed collective, from the replay leader; fault because every rank
# goroutine of a resilient run commits to the checkpoint store.
race:
	$(GO) test -race ./internal/mpi/ ./internal/trace/ ./internal/telemetry/ ./internal/fault/

# Race-detect the whole module (slower than the targeted `race` gate).
test-race:
	$(GO) test -race ./...

# Short-mode race leg for the runtime, solver, coupling and serving
# layers: cheap enough for `make check`, still crosses the
# goroutine-per-rank scheduler, the coupler's exchange phases and the
# HTTP job registry. The solver packages are here because the race
# detector is the proof that the set-up state a run's ranks share
# (mpi.Shared: the decomposition, operators, hierarchies, face lists, the
# initial droplet cloud's owners, SIMPIC's segment factors) is never
# written, and that each rank solves in CG vectors of its own (fem's
# DistSolver). sparse is here so that sparse.Dist's kept send buffers
# and receive slots run under the payload-poison oracle (a read after
# Comm.Release sees NaN). perfmodel is here because the service's
# worker goroutines share one Algorithm 1 plan per component set.
test-race-short:
	$(GO) test -race -short ./internal/mpi/ ./internal/amg/ ./internal/sparse/ ./internal/pressure/ ./internal/mgcfd/ ./internal/particle/ \
		./internal/simpic/ ./internal/fem/ ./internal/mesh/ ./internal/harness/ ./internal/coupler/ ./internal/perfmodel/ ./internal/serve/ ./cmd/cpxserve/

# The figure-level check on the pressure and amg solvers: re-run the
# five pressure sweeps and diff each table against its record in
# results/. About 4.5 min on a 2-core host; the quicker entries are
# TestStdoutIsTheRecordedTable. The full-scale Fig. 9 is one command
# outside `make check`: `make results RESULTS_SWEEPS=fig9` diffs it
# against results/fig9.txt in about 4-6 min.
RESULTS_SWEEPS = fig4ab fig5a fig5b fig6a fig6bc

results:
	@for id in $(RESULTS_SWEEPS); do \
		echo "cpxbench -exp $$id"; \
		$(GO) run ./cmd/cpxbench -exp $$id | diff -u results/$$id.txt - || exit 1; \
	done

# The repository's host-time benchmark (bench/README.md): all four
# workloads, results to .bench_out.json. About 2 min on a 2-core host.
bench:
	$(GO) run ./bench -workload all -out .bench_out.json

# Judge two `make bench` outputs against the bounds the benchmark fixes:
#   make bench-compare A=before.json B=after.json
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)
