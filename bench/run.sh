#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it with the arguments given, from the checkout root:
#
#   bash bench/run.sh --workload skewed3d --seed 1 --seconds 20 --trace 0   # one workload, end to end
#   bash bench/run.sh --workload skewed3d --seed 1 --seconds 20 --trace 1   # per-layer metrics + trace file
#   bash bench/run.sh -all -runs 10 -seconds 20    # every workload on 10 seeds, three runs per seed,
#                                                  # alternating; writes bench/results/BENCH_0.json and aa.json
#
# Everything the build and the run write (Go build cache, binary,
# generated tensors, traces) stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/pastabench" ./bench
exec "$build/pastabench" "$@"
