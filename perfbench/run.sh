#!/usr/bin/env bash
# Builds the benchmark, its traced twin server and the repository's
# protoserve from source into .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload session-churn --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go's build cache, temporary files and home
# directory included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/protoserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/protoserve and perfbench/)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -o "$out/protoserve" ./cmd/protoserve
go build -C perfbench -o "$out/perfbench" .
go build -C perfbench -o "$out/tracedserve" ./tracedserve

exec "$out/perfbench" -bin "$out" -work "$out/work" "$@"
