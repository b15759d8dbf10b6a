#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it from the
# checkout root, keeping the Go build cache and all scratch files inside
# .bench_build. Usage (from the repository root):
#   bash perfbench/run.sh --workload sweep|sampled|serve --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" \
	GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$root/.bench_build/perfbench" .) >&2
exec "$root/.bench_build/perfbench" "$@"
