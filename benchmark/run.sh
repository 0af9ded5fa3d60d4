#!/usr/bin/env bash
# What BENCHMARK.json runs: builds the benchmark from source, keeping
# the binary and Go's build cache under .bench_build/ so that nothing is
# written outside the checkout, then runs it with the driver's arguments.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/go-cache" GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
