# Development targets. `make quick` is the fast pre-commit gate; `make
# verify` is the full tier-1 gate (ROADMAP.md) plus static analysis, the
# race-enabled concurrency tests guarding the parallel experiment engine,
# and the deprecated-API usage gate.

GO ?= go

.PHONY: build vet short test race quick verify noalloc deprecated-gate smoke bench bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# The concurrency gate: race-enabled tests of every code path that runs on
# or feeds the worker-pool engine. The harness run is restricted to its
# concurrency tests (singleflight, pre-warm, progress) because the rest of
# that suite is sequential simulation that the race detector slows ~7x for
# no extra coverage; `go test -race ./internal/harness/` still passes if
# you want the whole package raced. AllocsPerRun is
# unreliable under -race, so the zero-allocation guard for the disabled
# observability path runs as a separate non-race step (noalloc).
race: noalloc
	$(GO) test -race -short ./internal/engine/... ./internal/mrc/... ./internal/obs/... ./internal/server/... ./internal/uarch/...
	$(GO) test -race -short -run 'Singleflight|Prewarm|Parallel|ResultStore|Deprecated' ./internal/harness/

# The zero-cost-when-disabled guard: with a nil observer the simulator hot
# path must not allocate — neither the observability hooks themselves nor a
# post-warm-up steady-state kernel run (warp ticks, CTA launches, cache and
# MSHR traffic, event-skip bookkeeping). Run without -race (see above).
noalloc:
	$(GO) test -run 'TestNilObserverNoAllocs' .
	$(GO) test -run 'TestNilHooksNoAllocs' ./internal/obs/
	$(GO) test -run 'TestSteadyStateNoAllocs' ./internal/gpu/ ./internal/chiplet/

# The performance regression harness. BenchmarkSimulatorHotPath compares
# the event-driven run loop against the dense legacy baseline on full
# kernels and writes the machine-readable summary (simulated Mcycles/s,
# events/s, event-vs-legacy speedup) to BENCH_hotpath.json; the micro and
# figure benchmarks track the component hot paths and the paper pipeline,
# and BenchmarkAnalyticPredict merges the analytic tier's per-request cost
# and analytic-vs-cycle speedup columns into the same summary.
# Compare runs with `go run golang.org/x/perf/cmd/benchstat` if available,
# or diff BENCH_hotpath.json.
bench:
	BENCH_HOTPATH_JSON=$(CURDIR)/BENCH_hotpath.json \
		$(GO) test -run XXX -bench 'BenchmarkSimulatorHotPath|BenchmarkSteadyStateCycle' \
		-benchmem ./internal/gpu/
	$(GO) test -run XXX -bench 'BenchmarkCacheAccess|BenchmarkMSHR' -benchmem ./internal/cache/
	BENCH_HOTPATH_JSON=$(CURDIR)/BENCH_hotpath.json \
		$(GO) test -run XXX -bench 'BenchmarkFigure|BenchmarkTable|BenchmarkAnalyticPredict' \
		-benchmem -benchtime 1x .

# The throughput regression guard: re-runs the hot-path cells three times
# and fails if any cell's best simMcyc/s drops more than 20% below the
# committed BENCH_hotpath.json. Best-of-three absorbs background load
# spikes (a real regression slows every run); CI runs it as a separate
# non-blocking job.
bench-check:
	$(GO) run ./cmd/benchcheck -baseline $(CURDIR)/BENCH_hotpath.json

# The API migration gate, three scans:
#   1. The deprecated facade entry points (Simulate, SimulateWithOptions,
#      SimulateSequence, SimulateMCM) may be called only by their wrappers
#      in gpuscale.go and by gpuscale_deprecated_test.go, which pins the
#      wrapper/Context-form agreement. Everything else — commands,
#      examples, internal packages, the other facade tests — must use the
#      context-aware API.
#   2. The deprecated harness setters (SetParallel, SetProgress,
#      SetObserver) may be called only by
#      internal/harness/deprecated*.go; everything else must pass
#      functional options to harness.New.
#   3. Every switch dispatching over uarch variant values ("case uarch.X")
#      must carry a panicking default, so adding a new variant axis value
#      fails loudly at every dispatch site instead of silently simulating
#      the baseline. Validation lives in internal/uarch (whose own
#      unqualified switches return errors and are exempt); dispatch sites
#      validate first and treat an unmatched value as unreachable.
deprecated-gate:
	@bad=$$(grep -rnE 'gpuscale\.(Simulate|SimulateWithOptions|SimulateSequence|SimulateMCM)\(' \
		cmd/ examples/ internal/ bench_test.go gpuscale_obs_test.go \
		gpuscale_test.go gpuscale_seq_test.go request_test.go 2>/dev/null); \
	if [ -n "$$bad" ]; then \
		echo "deprecated simulation entry points in use (switch to SimulateContext/SimulateSequenceContext/SimulateMCMContext):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\.Set(Parallel|Progress|Observer)\(' \
		cmd/ examples/ internal/ bench_test.go gpuscale_obs_test.go 2>/dev/null \
		| grep -v 'internal/harness/deprecated'); \
	if [ -n "$$bad" ]; then \
		echo "deprecated harness setters in use (pass harness options to New: WithParallel, WithProgress, WithObserver):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rlE 'case uarch\.' cmd/ examples/ internal/ *.go 2>/dev/null \
	| grep -v '^internal/uarch/' | sort | xargs -r awk ' \
		FNR == 1 { sp = 0 } \
		{ n = 0; while (substr($$0, n + 1, 1) == "\t") n++ } \
		$$0 ~ /^\t*switch[ {]/ { sp++; ind[sp] = n; swline[sp] = FNR; swfile[sp] = FILENAME; hasuarch[sp] = hasdef[sp] = haspanic[sp] = 0; next } \
		sp > 0 && $$0 ~ /^\t*case uarch\./ && n == ind[sp] { hasuarch[sp] = 1 } \
		sp > 0 && $$0 ~ /^\t*default:/ && n == ind[sp] { hasdef[sp] = 1 } \
		sp > 0 && /panic\(/ { haspanic[sp] = 1 } \
		sp > 0 && $$0 ~ /^\t*}$$/ && n == ind[sp] { \
			if (hasuarch[sp] && !(hasdef[sp] && haspanic[sp])) printf "%s:%d: switch over uarch variant values without a panicking default\n", swfile[sp], swline[sp]; \
			sp-- } \
	'); \
	if [ -n "$$bad" ]; then \
		echo "uarch dispatch switches must panic in default (validate first; see docs/UARCH.md):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "deprecated-gate: ok"

# The daemon smoke test: boots an in-process gpuscaled, round-trips a
# /v1/predict twice, and asserts the byte-identical cache hit, the
# /metrics counters, and a clean shutdown (see docs/SERVICE.md).
smoke:
	$(GO) run ./cmd/gpuscaled -smoke

quick: build vet race short deprecated-gate smoke

verify: build vet race test deprecated-gate smoke
