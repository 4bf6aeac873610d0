# Repository targets. `make check` is the gate CI runs.

GO ?= go
SHELL := /bin/bash

.PHONY: help build test check bench bench-core bench-ingest bench-diff perf fmt vet rpvet vet-fix-check vet-sarif

help:
	@echo "Targets:"
	@echo "  build          go build ./..."
	@echo "  test           go test ./..."
	@echo "  check          full gate: gofmt, go vet, rpvet, build, race tests (CI runs this)"
	@echo "  bench          end-to-end table benchmarks (root package)"
	@echo "  bench-core     core hot-path benchmarks; updates BENCH_core.json via cmd/benchfmt"
	@echo "  bench-ingest   ingest-path benchmarks (parallel text parse, v1, v2 mapped); updates BENCH_ingest.json"
	@echo "  bench-diff     fresh core-benchmark run vs BENCH_core.json, Mann-Whitney per benchmark (exit 1 on regression)"
	@echo "  perf           end-to-end rpserved benchmark (cmd/rpperf): WORKLOAD=cold-sweep SEED=1 SECONDS=20 TRACE=0"
	@echo "  fmt            gofmt -w ."
	@echo "  vet            go vet ./..."
	@echo "  rpvet          custom static-analysis passes"
	@echo "  vet-fix-check  assert rpvet -fix -diff is empty (every suggested fix is applied)"
	@echo "  vet-sarif      write rpvet's findings to rpvet.sarif for code scanning"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full gate: gofmt, go vet, rpvet, build, race-enabled tests.
check:
	./scripts/check.sh

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Tracked baseline for the internal/core hot path: run the micro-benchmarks
# and refresh the committed JSON report (count 10, enough samples for
# rpbenchdiff's Mann-Whitney test to reach significance).
bench-core:
	set -o pipefail; $(GO) test -run '^$$' -bench . -benchmem -count 10 ./internal/core/ | $(GO) run ./cmd/benchfmt -out BENCH_core.json

# Tracked baseline for the ingest path: sequential vs chunked-parallel text
# parsing at several worker counts, plus the v1 decode and v2 mapped-view
# loads, over the shared 16MB corpus.
bench-ingest:
	set -o pipefail; $(GO) test -run '^$$' -bench Ingest -benchmem -count 3 ./internal/tsdb/ | $(GO) run ./cmd/benchfmt -out BENCH_ingest.json

# Statistical comparison of a fresh core-benchmark run against the tracked
# baseline (Mann-Whitney per benchmark; see cmd/rpbenchdiff). Exits 1 when
# a benchmark regressed significantly. BENCH_COUNT samples per benchmark.
BENCH_COUNT ?= 5
bench-diff:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/core/ > /tmp/rpbenchdiff-new.txt; \
	$(GO) run ./cmd/rpbenchdiff BENCH_core.json /tmp/rpbenchdiff-new.txt

# The repository benchmark (cmd/rpperf, declared in BENCHMARK.json): builds
# rpserved and rpperf from this checkout and drives one workload end to end.
# TRACE=1 prints the per-layer breakdown instead of the end-to-end metrics.
WORKLOAD ?= cold-sweep
SEED ?= 1
SECONDS ?= 20
TRACE ?= 0
perf:
	bash cmd/rpperf/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

rpvet:
	$(GO) run ./cmd/rpvet ./...

# Fails when any pass still carries an unapplied suggested fix: the tree
# must be a fixed point of `rpvet -fix`.
vet-fix-check:
	$(GO) run ./cmd/rpvet -fix -diff ./...

# Writes the findings as SARIF 2.1.0 for GitHub code scanning; always
# produces the file, even when there are findings (CI uploads it and then
# fails on the gate instead).
vet-sarif:
	$(GO) run ./cmd/rpvet -format=sarif ./... > rpvet.sarif || true
	@echo "wrote rpvet.sarif"
