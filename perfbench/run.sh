#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload tcp-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary, trace
# files) stays under .bench_build/; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -trace-dir "$out/trace" "$@"
