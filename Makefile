GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet fmt-check race test-par lint fuzz-smoke oracle-smoke oracle bench bench-smoke golden bench-pressure pressure-smoke serve-smoke chaos-smoke cluster-smoke bench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a module of its own, which the root ./... does not enter.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Fails when any Go file is not gofmt-formatted, listing the files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The second line repeats the two router tests that depend on ring
# balance, so a hashing regression fails CI instead of flaking once in
# a hundred runs.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestRouterPlacementStable|TestRouterHedging' ./internal/router

# The parallel-pipeline determinism and isolation tests, explicitly
# under the race detector — the worker pool's acceptance gate.
test-par:
	$(GO) test -race -run 'Parallel|Corpus|DeriveSeed|Timings' ./internal/pipeline/... ./internal/workload/...

# Repo determinism lint: no wall-clock or unseeded randomness in the
# deterministic packages (internal/lint documents the rules).
lint:
	$(GO) run ./cmd/rplint -root .

# Short fuzzing pass over every native fuzz target. Each target runs
# for $(FUZZTIME) (default 10s) on top of its seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParser$$' -fuzztime $(FUZZTIME) ./internal/source
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineDifferential$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineFaults$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzIRImport$$' -fuzztime $(FUZZTIME) ./internal/irimport
	$(GO) test -run '^$$' -fuzz '^FuzzConstDivRem$$' -fuzztime $(FUZZTIME) ./internal/interp

# Semantics-oracle smoke: 200 seeded generated programs, each compiled
# with and without promotion and run on both interpreter paths (the
# bytecode engine and the reference interpreter);
# any observable divergence (or print→reimport round-trip break) fails
# the build with a shrunk counterexample.
oracle-smoke:
	$(GO) run ./cmd/rpbench -oracle 200 -seed 1 -size small -oracle-roundtrip

# Nightly-scale oracle sweep across the size classes, recorded as
# BENCH_oracle.json.
oracle:
	$(GO) run ./cmd/rpbench -oracle 2000 -seed 1 -size small -oracle-roundtrip
	$(GO) run ./cmd/rpbench -oracle 500 -seed 2 -size medium -oracle-roundtrip -json BENCH_oracle.json
	$(GO) run ./cmd/rpbench -oracle 100 -seed 3 -size large -oracle-roundtrip

# The benchmark records: every bench/ workload once untraced
# (end-to-end metrics, BENCH_e2e.json) and once traced (per-layer time
# and allocations, BENCH_layers.json). Each record is the result file
# the harness names on its "result file:" line, copied byte for byte,
# so both carry its schema_version and machine block. Both runs write
# only under bench/out and the records are copied after the second
# one, so neither run sees a modified tree and both machine blocks say
# "dirty": false on a clean checkout. A run takes several minutes and
# its numbers are noisy, so ci runs bench-check instead of this.
BENCH_E2E_LOG = bench/out/make-bench-e2e.log
BENCH_LAYERS_LOG = bench/out/make-bench-layers.log

bench:
	mkdir -p bench/out
	sh bench/run.sh --workload all --trace 0 > $(BENCH_E2E_LOG) || { cat $(BENCH_E2E_LOG); exit 1; }
	cat $(BENCH_E2E_LOG)
	sh bench/run.sh --workload all --trace 1 > $(BENCH_LAYERS_LOG) || { cat $(BENCH_LAYERS_LOG); exit 1; }
	cat $(BENCH_LAYERS_LOG)
	cp "bench/$$(sed -n 's/^result file: //p' $(BENCH_E2E_LOG))" BENCH_e2e.json
	cp "bench/$$(sed -n 's/^result file: //p' $(BENCH_LAYERS_LOG))" BENCH_layers.json

# One-iteration pass over every microbenchmark, as a compile-and-run
# smoke test for CI (benchmark numbers from one iteration mean nothing;
# the point is that the benchmarks keep working). The interp benchmarks
# cover the bytecode engine and the reference interpreter; the core
# benchmark covers whole-function promotion; the opt benchmark covers
# the post-promotion cleanup; the source benchmark covers the frontend;
# the pipeline benchmarks cover whole promote-only runs and whole
# default runs with measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/cfg/ ./internal/ssa/ ./internal/core/ ./internal/interp/ ./internal/source/ ./internal/pipeline/ ./internal/opt/

# Rewrite the output-identity golden file
# (internal/pipeline/testdata/identity.golden) from the current
# pipeline: per pair, the exact digest and the digest with registers
# renumbered per function by first appearance. Only a change meant to
# alter the report or the promoted IR runs this; its change log names
# the pairs that moved.
golden:
	$(GO) test -count=1 -run '^TestOutputIdentity$$' ./internal/pipeline -update

# Pressure benchmark: the Table-3-style register-pressure record —
# baseline vs uncapped vs capped colors per routine, with the emitted
# IR re-colored as verification that no function exceeds
# max(cap, baseline).
bench-pressure:
	$(GO) run ./cmd/rpbench -pressure-bench -pressure-cap 8 -pressure-gen 8 -json BENCH_pressure.json

# CI smoke for the pressure path: suite only, no JSON artifact. Cap 4
# binds on several suite routines, so the re-coloring check also covers
# demoted webs.
pressure-smoke:
	$(GO) run ./cmd/rpbench -pressure-bench -pressure-cap 8 -pressure-gen 0
	$(GO) run ./cmd/rpbench -pressure-bench -pressure-cap 4 -pressure-gen 0

# The serving drills (cmd/rpdrill builds rpserved and rprouter, runs
# them on ephemeral ports and fails at the first broken assertion):
#   serve   — a replay pass with no failure and one outcome per
#             program, then SIGTERM under load must drain (exit 0) and
#             answer the requests in flight;
#   chaos   — kill -9 mid-load and a warm restart over the same cache
#             directory, a restart after a SIGTERM that must have
#             flushed the disk write queue, and injected disk faults
#             that must never reach a client, all byte-identical to a
#             memory-only run;
#   cluster — rprouter + 2 replicas: Zipf hot-key herds must collapse,
#             a replica kill -9 must cost no request, the router must
#             drain under load, and a SIGTERM sent the moment either
#             binary publishes its port file must end in exit 0.
serve-smoke:
	$(GO) run ./cmd/rpdrill serve

chaos-smoke:
	$(GO) run ./cmd/rpdrill chaos

cluster-smoke:
	$(GO) run ./cmd/rpdrill cluster

# Benchmark smoke test: the bench module's own tests (about 11 s). They
# run every workload briefly, traced and untraced, check every output
# against the reference interpreter, and require every metric
# BENCHMARK.json names to be printed. A pipeline or interp change that
# breaks the benchmark's reference check fails CI here.
bench-check:
	cd bench && $(GO) test ./...

ci: fmt-check vet lint race test-par bench-smoke pressure-smoke fuzz-smoke oracle-smoke serve-smoke chaos-smoke cluster-smoke bench-check
