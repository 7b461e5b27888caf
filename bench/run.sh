#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind stays under bench/.bench_build/ and bench/out/; nothing
# outside the checkout is read or written (the Go toolchain itself aside).
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/dbs3bench" .
exec "$build/dbs3bench" "$@"
