#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-tables --seed 42 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
