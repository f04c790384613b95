#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from the root of a checkout. Everything the build leaves behind (the Go
# build cache included) stays in .bench_build inside the checkout.
# `go run ./benchmark <args>` does the same with the user's own Go cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/mhdbench" ./benchmark
exec "$build/mhdbench" "$@"
