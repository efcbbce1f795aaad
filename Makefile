GO ?= go
FUZZTIME ?= 10s
CHAOS_RUNS ?= 25
CHAOS_SEED ?= 1

.PHONY: build test check fmt-check vet staticcheck race determinism bench bench-build bench-hot bench-snapshot loc perf-gate serve-smoke restart-smoke cluster-smoke chaos fuzz metrics-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing them.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt: these files need formatting (gofmt -w):"; \
		echo "$$files"; \
		exit 1; \
	fi

# race runs the race detector over every internal package and command: the
# tracer, the simulated multi-GPU fleet, the MPI abort path, and the
# partition-serving daemon all thread goroutines through shared structures.
race:
	$(GO) test -race ./internal/... ./cmd/...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is
# a no-op otherwise, so `make check` works in hermetic containers while
# CI (which installs it) still gets the full analysis.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# check is the PR gate: formatting, static analysis, the race detector,
# the determinism repeats, the metrics-exposition lint, the benchmark
# module's build, and the perf-regression gate against the committed
# baseline.
check: fmt-check vet staticcheck race determinism metrics-lint bench-build perf-gate

# bench-build vets and tests the perfbench module. It has its own go.mod,
# so neither `go build ./...` nor `go vet ./...` at the root compiles it;
# without this target a change to an API it uses goes unnoticed until the
# benchmark runs.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# determinism repeats the bit-identity checks at one and two host CPUs:
# the golden outputs of GP-metis and mt-metis, the seed-determinism tests
# of the GP-metis core, and the MPI-backed ParMetis and PT-Scotch runs,
# whose virtual clocks must not depend on goroutine scheduling.
determinism:
	$(GO) test -cpu 1,2 -count=5 -run 'TestGoldenBitIdentity|Determinis|TestBackToBackBarriers' \
		./internal/core ./internal/parmetis ./internal/ptscotch ./internal/mpi

# metrics-lint asserts every registered series appears on a FRESH
# /metrics scrape, of a standalone server and of a ring member — every
# registry name, counters, declared histograms, and the eagerly declared
# per-peer × per-RPC cluster histograms — so dashboards and alert
# previews never chase series that only exist after first use.
metrics-lint:
	$(GO) test ./internal/server -run 'TestMetricsLintFreshScrape' -count=1
	$(GO) test ./internal/cluster -run 'TestClusterRPCMetricsEager|TestClusterMetricsLintFreshScrape' -count=1

# perf-gate re-runs the benchmark at BENCH_baseline.json's own scale,
# k, runs, and seed and fails (exit 2) when any input regresses modeled
# time by more than 10% or edge cut by more than 2%. Intentional perf
# changes update the baseline via `make bench-snapshot`.
perf-gate:
	$(GO) run ./cmd/bench -compare BENCH_baseline.json

# serve-smoke boots a real gpmetisd on a random port, submits a job with
# the gpmetis client, and asserts the resubmission is a cache hit; it then
# runs the kill -9 / restart recovery smoke on a journaled daemon and the
# 3-node ring smoke (forwarding, cross-node cache peek, RF=2 replication,
# replica-served owner failover, rejoin catch-up).
serve-smoke: build
	./scripts/serve_smoke.sh
	./scripts/restart_smoke.sh
	./scripts/cluster_smoke.sh

# cluster-smoke runs only the ring end-to-end: boot a 3-node RF=2 ring
# from one peers.json, forward a job to its digest owner, answer a
# resubmission by cross-node cache peek, SIGKILL the owner and serve the
# digest from its replica, then restart the owner and catch it back up.
cluster-smoke: build
	./scripts/cluster_smoke.sh

# restart-smoke runs only the crash-recovery end-to-end: SIGKILL a
# journaled gpmetisd mid-job, restart it on the same journal, and assert
# the interrupted job resumes from its checkpoint.
restart-smoke: build
	./scripts/restart_smoke.sh

# chaos soaks the pipeline and daemon with seeded random fault scenarios,
# interruptions, and restarts (see cmd/chaos). Failures print a replay
# line: make chaos CHAOS_SEED=<seed> reproduces any round exactly.
chaos:
	$(GO) run ./cmd/chaos -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)

# fuzz exercises the hardened graph readers (and holds the Metis reader
# to the map-based reader it replaced), the POST /jobs wire decoder,
# journal replay, the checkpoint decoder, and the peers.json loader for
# FUZZTIME per target.
fuzz:
	$(GO) test ./internal/graph/gio -run '^$$' -fuzz FuzzRead$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/gio -run '^$$' -fuzz FuzzReadDifferential$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/gio -run '^$$' -fuzz FuzzReadGR$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzSubmitRequest$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzReplayJournal$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzCheckpointDecode$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzPeersFile$$ -fuzztime $(FUZZTIME)

bench:
	$(GO) run ./cmd/bench

# bench-hot times the pipeline-ldoor call (ldoor 1/40, k=64, seed 1) with
# the Go benchmark harness and reports its bytes and allocations per call.
bench-hot:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkGPMetisLdoor40$$' -benchmem -count 5

# loc prints the non-test Go lines of each package under internal/ and
# cmd/, then their total: the size a simplification reports per package.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done | awk '{ print; n += $$1 } END { printf "%7d  total\n", n }'

# bench-snapshot regenerates the committed perf trajectory record. The
# modeled clock is deterministic, so a diff in BENCH_baseline.json means
# an algorithm or machine-model change moved performance.
bench-snapshot:
	$(GO) run ./cmd/bench -scale 40 -runs 1 -snapshot BENCH_baseline.json table2
