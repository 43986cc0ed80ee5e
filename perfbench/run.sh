#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root. Usage (from the repository root):
#
#   bash perfbench/run.sh --workload tpch-solo --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, GOPATH and the go command's config
# (telemetry counters) go under $CARGO_TARGET_DIR (default .bench_build),
# so the run writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
