#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Arguments go to the binary unchanged (see
# `run.sh -h`). Run it from the root of a checkout. Everything it writes —
# the Go build cache, the binary, the durable stores of the serve
# workloads — stays under .bench_build/ there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/ecrpq-bench" .
exec "$build/ecrpq-bench" -tmp "$build/tmp" "$@"
