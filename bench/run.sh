#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json). Run it from
# the repository root:
#
#   bash bench/run.sh [--workload NAME --seed N --seconds N --trace 0|1] [-sets N] ...
#
# It builds the benchmark program (its own module, bench/go.mod) and hands
# over to it; the program builds the daemon under test. Every file written —
# build cache, binaries, daemon stores, scratch — lands under .bench_build/
# or bench/out/ in the checkout, nowhere else.
set -euo pipefail

root=$PWD
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run me from the root of the repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the Go toolchain's own writes (build cache, module cache, telemetry
# counters, link-step scratch) inside the checkout as well.
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go build -C "$root/bench" -o "$build/htierbench" .
exec "$build/htierbench" -root "$root" "$@"
