#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache, spans and scratch state all live
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go tool's config and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
