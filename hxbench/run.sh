#!/usr/bin/env bash
# Builds the t2hx benchmark from the source tree it is run in and runs one
# workload. Run it from the repository root:
#
#   bash hxbench/run.sh --workload endurance --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced runs' span files stay under
# .bench_build/ in the current directory. Build output goes to stderr, so
# the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

rev=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd hxbench && go build -buildvcs=false -o "$out/hxbench" .) >&2
exec "$out/hxbench" -rev "$rev" -spans-dir "$out" "$@"
