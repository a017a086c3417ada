#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from
# the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload probe --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, telemetry and temporary files all
# stay under .bench_build/ so that a run writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" "$@"
