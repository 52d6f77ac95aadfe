#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; all arguments pass
# through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload push-feed --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache, WAL directories and result records all
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -commit "$commit" "$@"
