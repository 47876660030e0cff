#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload omega-bound --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and run directories stay under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: $root is not an omegago checkout (no go.mod / internal/)" >&2
	exit 2
fi
b="$root/.bench_build"
mkdir -p "$b/gocache" "$b/tmp" "$b/config"
# Keep every file the go command writes (build cache, temp files, module
# cache, telemetry counters) inside the checkout.
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$b/perfbench" .
exec "$b/perfbench" "$@"
