#!/usr/bin/env bash
# Builds the benchmark and its service child from source, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/
# in the current directory. A tree without the storemlp module at the
# root fails the build, and then the script exits 1 without a result.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the tree.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/bin/" . ./child) >&2
exec "$out/bin/perfbench" "$@"
