#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it from the
# checkout's root:
#
#   sh perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout; the build
# never touches the network.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
