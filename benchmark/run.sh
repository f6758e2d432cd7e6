#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload join-mat --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/, so the run touches nothing outside
# the checkout. Without the repository around it (no go.mod in the
# working directory) there is nothing to build and the script fails.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod and benchmark/ are not both here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout too.
XDG_CONFIG_HOME="$build/config" go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
