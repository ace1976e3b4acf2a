#!/usr/bin/env bash
# Builds asterixd and the benchmark from this tree and runs the benchmark.
# Everything written — the go build cache, binaries, data directories — stays
# under .bench_build in the checkout; span files go to bench/out.
#
#   bash bench/run.sh --workload lookup --seed 1 --seconds 12 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$build/asterixd" ./cmd/asterixd)
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" --asterixd "$build/asterixd" --tmp "$build/tmp" "$@"
