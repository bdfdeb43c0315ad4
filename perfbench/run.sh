#!/usr/bin/env bash
# Builds the resmod benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload predict-paper --seed 1 --seconds 30 --trace 0
#
# Run from the root of a resmod checkout.  Everything the build and the
# run leave behind goes under .bench_build/ in that checkout (Go build
# cache, toolchain config, the binary, temp stores and span files).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off
export PERFBENCH_BUILD="$build"

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
