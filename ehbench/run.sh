#!/usr/bin/env bash
# Builds the ehbench benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. The Go build cache, the binary and every file a run
# writes stay under .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C ehbench -o "$build/ehbench" .
exec "$build/ehbench" "$@"
