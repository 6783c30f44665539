#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the root of a checkout: bash bench/run.sh ...
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/txbench" .
exec "$build/txbench" "$@"
