#!/usr/bin/env bash
# Builds dnsd and the benchmark from this checkout's sources, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ldns-hit --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, work files, span traces and result
# files all go under $CARGO_TARGET_DIR (default .bench_build), so the
# run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dnsd || ! -f BENCHMARK.json ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dnsd and BENCHMARK.json not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$PWD/$out
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

go build -o "$out/bin/dnsd" ./cmd/dnsd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -dnsd "$out/bin/dnsd" -out "$out" "$@"
