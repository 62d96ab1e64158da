#!/usr/bin/env bash
# Builds the repository benchmark from the source tree it sits in and runs
# it from the repository root:
#
#   bash benchmark/run.sh --workload eager-contention --seed 1 --seconds 35 --trace 0
#
# Every build artifact and Go cache lives under .bench_build/ at the root,
# so nothing outside the checkout is read for writing or modified. The build
# log goes to stderr; stdout carries only the benchmark's report, whose last
# line is the JSON result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$out/retconbench" .) >&2
cd "$root"
exec "$out/retconbench" "$@"
