#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root,
# then runs it with the given arguments. Run from the checkout root:
#   bash perfbench/run.sh --workload eval-full --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the build and module caches inside the checkout, ignore user and
# workspace settings, and never reach for a network toolchain or module
# proxy: the module has no external dependencies.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
