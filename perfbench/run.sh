#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it.
# Usage: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Every build product, cache and run file stays under the checkout's
# build directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build" "$@"
