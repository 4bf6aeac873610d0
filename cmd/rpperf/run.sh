#!/usr/bin/env bash
# run.sh — build rpserved and rpperf from this checkout and run the
# benchmark. Run from the repository root; arguments pass through:
#
#   bash cmd/rpperf/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch stay inside the
# checkout, under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/rpserved ] || [ ! -d internal ]; then
    echo "run.sh: run from the root of a checkout of the repository (no go.mod, cmd/rpserved or internal/ here)" >&2
    exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/" ./cmd/rpserved ./cmd/rpperf
exec "$out/bin/rpperf" -rpserved "$out/bin/rpserved" -work "$out/rpperf" "$@"
