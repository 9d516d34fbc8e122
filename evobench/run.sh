#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash evobench/run.sh --workload evolve-large --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache and the binary live
# under .bench_build/ in that directory, so nothing is read or written
# outside it beyond the Go toolchain itself. Outside a full checkout (no
# ../go.mod beside evobench/) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOENV=off
# Return freed heap pages with MADV_FREE: see pinHeap in main.go.
export GODEBUG=madvdontneed=0
go -C "$root/evobench" build -o "$out/evobench" .
exec "$out/evobench" "$@"
