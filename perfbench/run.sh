#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root:
#
#   bash perfbench/run.sh --workload cold-runs --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
