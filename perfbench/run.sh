#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from
# the checkout root. Every argument is passed through, for example:
#
#   bash perfbench/run.sh --workload trace-replay --seed 7 --seconds 20 --trace 0
#
# Build products, the Go build cache and the go command's own state all
# stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
