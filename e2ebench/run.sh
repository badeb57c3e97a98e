#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout:
#
#   bash e2ebench/run.sh --workload ingest-long --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, and the benchmark's stores.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --dir "$out/e2e" "$@"
