# Development targets for the dnscontext repository. `make check` is the
# tier-1 gate: vet, build, the full test suite under the race detector
# (the parallel analysis pipeline makes -race non-optional), the
# benchmark module's tests, and the observability determinism proof
# (seeded runs must stay bit-identical with metrics/tracing on or off).
# `make fuzz` (short budget) and `make cover` are the deeper, slower
# companions — run them before touching the trace codecs or the
# classifier.

GO ?= go

# Per-target fuzzing budget for `make fuzz`. The corpora under
# testdata/fuzz/ always replay as plain tests, so even FUZZTIME=0
# catches regressions. Targets are package:function pairs.
FUZZTIME ?= 10s

FUZZ_TARGETS := \
	./internal/trace:FuzzReadDNS \
	./internal/trace:FuzzReadConns \
	./internal/trace:FuzzReadDNSJSON \
	./internal/trace:FuzzReadConnsJSON \
	./internal/trace:FuzzWriteDNS \
	./internal/trace:FuzzWriteConns \
	./internal/bulk:FuzzFeed

.PHONY: check vet build test race perfbench-test obs-determinism stream-parity transport-matrix scan soak chaos scaling-gate bench bench-all bench-parallel bench-compare scan-bench profile fuzz cover

check: vet build race perfbench-test obs-determinism stream-parity transport-matrix scan soak chaos

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark is a module of its own (perfbench/go.mod), so
# `./...` above never builds or tests it; this target catches a library
# API change that would break the benchmark.
perfbench-test:
	cd perfbench && $(GO) test -race .

# Bit-identical outputs with observability on vs. off, across worker
# counts. Cheap enough to gate every check; also covered by `race`, but
# a named target keeps the invariant visible.
obs-determinism:
	$(GO) test ./internal/obs -run='TestObservabilityDeterminism|TestObservedSnapshotsAreDeterministic' -count=1

# Stream-vs-in-memory parity: a forced-spill streaming run and a
# multi-process shard merge must be digest-identical to the in-memory
# pipeline (the PR 6 out-of-core invariant). Also covered by `race`, but
# named so the gate is visible.
stream-parity:
	$(GO) test ./internal/core -run='TestStreamParityWithInMemory|TestMultiProcessMergeMatchesInMemory' -count=1

# Transport matrix: the default (Do53) transport must reproduce the
# pre-transport golden hashes bit for bit, and every transport's trace
# must analyze digest-identically at Workers 1, 2, and 8 under nonzero
# faults (the PR 7 encrypted-transport invariant). Also covered by
# `race`, but named so the gate is visible.
transport-matrix:
	$(GO) test ./internal/core -run='TestGoldenOutputsBitIdentical|TestExplicitUDPTransportMatchesGolden|TestTransportMatrixDigestParity' -count=1

# Bulk-scan determinism gate: a pinned simulated scan (fixed seed,
# synthetic feed) must reproduce the golden digest of its sorted JSONL
# stream in testdata/scan_digest.txt, byte-identically at several
# concurrencies (the PR 8 bulk-engine invariant). Intentional model
# changes regenerate it with -update-scan-golden. Also covered by
# `race`, but named so the gate is visible.
scan:
	$(GO) test ./internal/bulk -run='TestScanGoldenDigest|TestSimDeterministicAcrossConcurrency' -count=1

# Chaos soak of the hardened DNS server under the race detector: several
# seconds of mixed valid/garbage/panicking queries against a small queue
# and a live rate limiter, asserting the server answers throughout,
# recovers every panic, and still drains cleanly. SOAKTIME is the flood
# budget; the whole target stays well under 30 s.
SOAKTIME ?= 10s

soak:
	DNSCTX_SOAK=$(SOAKTIME) $(GO) test ./internal/dnsserver -race -run='^TestServerChaosSoak$$' -count=1 -v

# Client-side chaos soak under the race detector: a CHAOSNAMES-name scan
# driven through the real-socket fault proxy (≥2% loss, jitter,
# reordering, duplication, and a blackhole window) with failover,
# adaptive timeouts, hedging, and the circuit breaker all on, asserting
# every feed index lands in the JSONL output exactly once — plus the
# kill-and-resume equivalence proof (the PR 9 invariant).
CHAOSNAMES ?= 100000

chaos:
	DNSCTX_CHAOS_NAMES=$(CHAOSNAMES) $(GO) test ./internal/bulk -race \
		-run='^TestChaosSoak$$|^TestResumeAfterKill$$' -count=1 -timeout=10m -v

# Short-budget coverage-guided fuzzing of the trace codecs and the bulk
# feed reader. Go allows one -fuzz target per invocation, so loop over
# package:function pairs.
fuzz:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "--- fuzz $$pkg $$t ($(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# Aggregate statement coverage across all packages.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

# Machine-readable benchmark record: the headline benchmarks rendered as
# JSON (name, ns/op, allocs/op, and custom metrics like speedup_x, qps,
# and latency percentiles) into BENCH_PR10.json via cmd/benchjson, with
# delta columns against the PR 9 record when it exists.
BENCH_BASELINE ?= BENCH_PR9.json
BENCH_OUT ?= BENCH_PR10.json

# Scaling gate: BenchmarkAnalyzeParallel measures the 4-worker speedup
# over its own 1-worker baseline and b.Fatal()s if it falls below the
# pinned floor (2.5x, override via DNSCTX_SPEEDUP_FLOOR) — on machines
# with >=4 CPUs. Below 4 CPUs the gate logs a loud SKIP and still
# records the measurement. Deliberately NOT piped into benchjson: a
# pipe would mask the test binary's exit status and a parallelism
# regression would sail through.
scaling-gate:
	$(GO) test -bench='BenchmarkAnalyzeParallel$$' -run='^$$' -benchtime=3x .

bench: scaling-gate
	$(GO) test -bench='BenchmarkAnalyzeParallel$$|BenchmarkFaultLossSweep$$|BenchmarkAnalyzeStream$$|BenchmarkTransportLookup$$|BenchmarkTransportWhatIf$$|BenchmarkBulkScanSim$$|BenchmarkBulkScanLive$$|BenchmarkBulkScanChaos' \
		-benchmem -benchtime=3x -run='^$$' ./... | \
		$(GO) run ./cmd/benchjson $(if $(wildcard $(BENCH_BASELINE)),-baseline $(BENCH_BASELINE)) > $(BENCH_OUT)
	@cat $(BENCH_OUT)

# Bulk-scan throughput record: the ≥1M-lookup simulated scan, the live
# loopback scan, and the scan-under-2%-loss cell (fixed ladder vs
# adaptive+hedging through the chaos proxy), each once, into
# $(BENCH_OUT) with qps, p50/p99 latency, and timeout rate as custom
# metrics (deltas against $(BENCH_BASELINE) where the benchmark existed
# there).
scan-bench:
	$(GO) test ./internal/bulk -bench='BenchmarkBulkScanSim$$|BenchmarkBulkScanLive$$|BenchmarkBulkScanChaos' \
		-benchmem -benchtime=1x -run='^$$' | \
		$(GO) run ./cmd/benchjson $(if $(wildcard $(BENCH_BASELINE)),-baseline $(BENCH_BASELINE)) > $(BENCH_OUT)
	@cat $(BENCH_OUT)

# Diff the current benchmark record against the baseline without
# re-running anything: reads both JSON files and prints the delta table.
bench-compare:
	$(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -compare $(BENCH_OUT) > /dev/null

# Full paper reproduction: every table and figure as bench metrics.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$'

# Scaling record: the sharded pipeline vs. its 1-worker baseline.
bench-parallel:
	$(GO) test -bench=BenchmarkAnalyzeParallel -run='^$$' -benchtime=3x

# CPU and allocation profiles of the single-worker pipeline, plus the
# top-function summaries. This is the workflow behind the ISSUE 5
# optimizations (DESIGN.md §7e): profile, indict a function, fix it,
# re-profile, and gate the win with an AllocsPerRun test.
PROFILE_DIR ?= profiles

profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -bench='BenchmarkAnalyzeParallel/workers=1$$' -run='^$$' -benchtime=3x \
		-cpuprofile=$(PROFILE_DIR)/cpu.out -memprofile=$(PROFILE_DIR)/mem.out \
		-o $(PROFILE_DIR)/bench.test
	@echo '--- top CPU ---'
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/cpu.out
	@echo '--- top allocations (alloc_objects) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_objects $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/mem.out
