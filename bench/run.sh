#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source
# into .bench_build/ (inside the checkout, the only place a benchmark
# run may write) and runs it with the driver's arguments. Run from the
# repository root:
#
#   sh bench/run.sh --workload truth-sweep --seed 1 --seconds 10 --trace 0
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
# The build cache lives in the checkout too, so the first run of a fresh
# checkout compiles the standard library once (about a minute).
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" -workdir "$build" "$@"
