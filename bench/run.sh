#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's caches included,
# so nothing is written outside the checkout) and runs it with the caller's
# arguments; the result line is kept in .bench_build/run.json and a traced
# run's spans in .bench_build/run.json.trace.json (a later -out overrides).
# Run from the root of a checkout: bash bench/run.sh --workload ...
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/daggerperf" . >&2
exec "$build/daggerperf" -out "$build/run.json" "$@"
