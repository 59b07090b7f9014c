#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory; nothing is fetched.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
