#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs it with the given arguments. Everything the build leaves behind (Go's
# build cache included) stays under .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
