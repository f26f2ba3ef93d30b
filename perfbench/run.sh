#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# directories) goes under $CARGO_TARGET_DIR, or .bench_build when unset.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOTMPDIR=$out/tmp GOPATH=$out/go-path
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --scratch "$out/scratch" "$@"
