#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build writes (Go build cache included) stays under .bench_build/ in
# the checkout; nothing outside the checkout is read or written.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/benchmark" ./benchmark
go build -o "$build/bin/aequitas-serve" ./cmd/aequitas-serve
exec "$build/bin/benchmark" -serve-bin "$build/bin/aequitas-serve" "$@"
