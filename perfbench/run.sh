#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-highk --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ in the
# current directory. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
