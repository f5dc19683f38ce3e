#!/usr/bin/env bash
# The command BENCHMARK.json names: `go run ./benchmark` with the Go build
# cache kept inside the checkout (.bench_build/), so that a harness that
# confines the benchmark to its checkout finds nothing written outside it.
# All arguments go to the program.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath"
exec go run ./benchmark "$@"
