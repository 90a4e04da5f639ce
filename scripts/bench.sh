#!/bin/sh
# Repository benchmarks, two stages:
#
#  1. Engine microbenchmarks: BenchmarkEngine + BenchmarkEngineTraced +
#     BenchmarkEngineReplay + BenchmarkEngineTraceDriven +
#     BenchmarkTraceDecodeColumnar + BenchmarkTraceEncodeColumnar, and
#     internal/sim's BenchmarkBuildSource (pc, wc, wc+sle), via
#     `go test -bench`, best-of-N times and median allocations, written to
#     BENCH_engine.json in the repo root. The engine section carries the
#     delta against the committed pre-optimization baseline, the
#     tracer-enabled overhead, the engine core alone over a
#     pre-materialized trace (replay: no generator, no decode), and the
#     trace-driven vs synthetic-generator ratio and the host CPU count
#     (num_cpu); the trace_codec
#     section measures the columnar decoder against the removed legacy
#     decoder's recorded cost, plus trace writing (generator + encoder,
#     the tracegen path) as encode_*; the source section records the
#     producer half of a synthetic run (generator plus consistency
#     rewrite) in ns/inst per stream (BENCH_COUNT overrides N, default
#     3).
#  2. Serving-layer benchmark: start a local mlpsimd, replay the
#     repeated Figure-2-style 64-point grid with mlpload, and write the
#     measurements (cold vs warm throughput, tail latencies, speedup)
#     to BENCH_serve.json.
#
# Usage: scripts/bench.sh [extra mlpload flags]
#   e.g. scripts/bench.sh -repeat 5 -concurrency 16
#   BENCH_ONLY=engine scripts/bench.sh   # stage 1 only (skip the daemon)
#   BENCH_ENGINE_OUT / BENCH_SERVE_OUT override the output paths (used
#   by check.sh to write throwaway smoke records for cmd/benchdiff
#   instead of clobbering the committed baselines).
set -eu

cd "$(dirname "$0")/.."

BENCH_ENGINE_OUT=${BENCH_ENGINE_OUT:-BENCH_engine.json}
BENCH_SERVE_OUT=${BENCH_SERVE_OUT:-BENCH_serve.json}

tmpdir=$(mktemp -d)
bench_cleanup() {
    [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap bench_cleanup EXIT

echo '>> engine microbenchmarks (best of '"${BENCH_COUNT:-3}"')'
go test -run '^$' \
    -bench '^(BenchmarkEngine|BenchmarkEngineTraced|BenchmarkEngineReplay|BenchmarkEngineTraceDriven|BenchmarkTraceDecodeColumnar|BenchmarkTraceEncodeColumnar)$' \
    -benchmem -count "${BENCH_COUNT:-3}" . | tee "$tmpdir/bench.out"
go test -run '^$' -bench '^BenchmarkBuildSource$' \
    -benchmem -count "${BENCH_COUNT:-3}" ./internal/sim | tee -a "$tmpdir/bench.out"

NUM_CPU=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# The bench-output-to-JSON conversion lives in engine_bench_json.awk so
# check.sh can apply it to smoke numbers and diff them with benchdiff.
awk -v num_cpu="$NUM_CPU" -f scripts/engine_bench_json.awk \
    "$tmpdir/bench.out" >"$BENCH_ENGINE_OUT"

echo ">> $BENCH_ENGINE_OUT"
cat "$BENCH_ENGINE_OUT"

if [ "${BENCH_ONLY:-}" = engine ]; then
    exit 0
fi

echo '>> building mlpsimd + mlpload'
go build -o "$tmpdir/mlpsimd" ./cmd/mlpsimd
go build -o "$tmpdir/mlpload" ./cmd/mlpload

"$tmpdir/mlpsimd" -addr 127.0.0.1:0 >"$tmpdir/mlpsimd.out" 2>"$tmpdir/mlpsimd.log" &
daemon_pid=$!
addr=''
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^mlpsimd listening on //p' "$tmpdir/mlpsimd.out")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo 'mlpsimd died at startup'; cat "$tmpdir/mlpsimd.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo 'mlpsimd never became ready'; exit 1; }
echo ">> mlpsimd up at $addr"

echo '>> driving the repeated 64-point grid (cold, then warm)'
"$tmpdir/mlpload" -addr "http://$addr" -json "$BENCH_SERVE_OUT" "$@"

kill -INT "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=''

echo ">> $BENCH_SERVE_OUT"
cat "$BENCH_SERVE_OUT"
