#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build product and cache stays under .bench_build there.
#
#   bash perfbench/run.sh --workload fleet-mixed-64 --seed 1 --seconds 30 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
