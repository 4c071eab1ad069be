#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary, data
# directories and span files all stay under .bench_build/ in the checkout;
# nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -work "$build/perfbench.d" "$@"
