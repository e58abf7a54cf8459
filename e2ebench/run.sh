#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload soa-scale --seed 1 --seconds 30 --trace 0
#
# Every build product (Go build cache, module cache, temp files, the
# binary) and every run artefact stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false"
export GOPROXY=off
export GOWORK=off

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
