#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mcm-simulate --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, the binary and everything
# a run writes stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
go build -C "$root/perfbench" -o "$build/perfbench/perfbench" . >&2
exec "$build/perfbench/perfbench" -root "$root" -out "$build/perfbench" "$@"
