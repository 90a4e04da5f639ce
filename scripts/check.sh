#!/bin/sh
# The repository's CI gate: build, vet (standard + repo-specific), and
# the race-enabled test suite. Run from anywhere inside the module.
# Fails fast: the first failing stage stops the run with its exit code.
set -eu

cd "$(dirname "$0")/.."

echo '>> go build ./...'
go build ./...

# No file in the module is build-tagged outside the analyzer's test
# fixtures, so every platform compiles the same code; cross-building
# keeps it that way.
echo '>> GOOS=darwin GOARCH=arm64 go build ./...'
GOOS=darwin GOARCH=arm64 go build ./...
echo '>> GOOS=windows go build ./...'
GOOS=windows go build ./...

echo '>> go vet ./...'
go vet ./...

# perfbench is a nested module, so the root ./... skips it, yet it
# imports the engine, trace, cache, workload and server packages; build
# and vet it here so an internal API change fails CI, not only the
# benchmark run.
echo '>> (cd perfbench && go build ./... && go vet ./...)'
(cd perfbench && go build ./... && go vet ./...)

# gofmt covers every Go file in the tree, analyzer fixtures included.
echo '>> gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo 'gofmt: the files above are not gofmt-formatted (run gofmt -w on them)'
    exit 1
fi

tmpdir=$(mktemp -d)
smoke_cleanup() {
    [ -n "${smoke_pid:-}" ] && kill "$smoke_pid" 2>/dev/null || true
    # When OBS_ARTIFACT_DIR is set (CI), preserve the smoke run's
    # observability outputs — shutdown Chrome trace, slow-request
    # listing, daemon log — so a failed gate leaves the evidence behind.
    if [ -n "${OBS_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$OBS_ARTIFACT_DIR"
        for f in run.trace.json slow.json mlpsimd.log BENCH_engine_smoke.json; do
            [ -f "$tmpdir/$f" ] && cp "$tmpdir/$f" "$OBS_ARTIFACT_DIR/" 2>/dev/null || true
        done
    fi
    rm -rf "$tmpdir"
}
trap smoke_cleanup EXIT

echo '>> storemlpvet build'
# Compile the vet tool on its own first: a broken analyzer must fail
# loudly as a build error, never be mistaken for (or hide) findings.
go build -o "$tmpdir/storemlpvet" ./cmd/storemlpvet || {
    echo 'storemlpvet: the vet tool itself failed to build (fix cmd/storemlpvet and internal/analysis before trusting any findings)'
    exit 3
}

echo '>> storemlpvet -list (sixteen rules)'
# The -list smoke proves every analyzer is actually wired into the
# default suite — a rule dropped from DefaultAnalyzers would otherwise
# pass the clean-tree check by silently not running. The count check
# catches the converse drift: a rule added to the suite without being
# added here.
vet_rules=$("$tmpdir/storemlpvet" -list)
echo "$vet_rules"
for rule in exhaustive-enum validate-coverage stats-drift floatcmp ctxmut \
    resetcomplete guardedby hotpath ctxpoll \
    lockorder atomicfield goleak digestcover \
    lockbalance sharedcapture closeall; do
    echo "$vet_rules" | grep -q "^$rule " || {
        echo "storemlpvet: rule $rule missing from -list (not wired into DefaultAnalyzers?)"
        exit 1
    }
done
rule_count=$(echo "$vet_rules" | wc -l)
[ "$rule_count" -eq 16 ] || {
    echo "storemlpvet: -list reports $rule_count rules, want 16 (update scripts/check.sh when adding rules)"
    exit 1
}

echo '>> storemlpvet ./... (-json -timing)'
# The -json contract is part of the gate: a clean run exits 0 AND emits
# an empty array. Findings (exit 1) or a load error (exit 2) fail here;
# hotpath consults go build -gcflags=-m=2, so this also gates the
# allocation-free/inlining claims of the hot paths. -timing surfaces
# the per-rule and total vet cost on every run, so a rule that turns
# quadratic is caught by eye before it is caught by a CI timeout.
# STOREMLPVET_JSON (set by CI) captures the findings for upload.
vet_out=$("$tmpdir/storemlpvet" -json -timing ./...) && vet_code=0 || vet_code=$?
if [ -n "${STOREMLPVET_JSON:-}" ]; then
    printf '%s\n' "$vet_out" >"$STOREMLPVET_JSON"
fi
case $vet_code in
0) ;;
1)
    echo "$vet_out"
    echo 'storemlpvet: findings reported'
    exit 1
    ;;
*)
    echo "$vet_out"
    echo "storemlpvet: load/internal error (exit $vet_code)"
    exit "$vet_code"
    ;;
esac
[ "$vet_out" = "[]" ] || {
    echo "$vet_out"
    echo 'storemlpvet: non-empty JSON despite clean exit'
    exit 1
}

echo '>> go test -race ./...'
go test -race "$@" ./...

echo '>> go test -race -cpu 1,2,4 -short (source-ahead, span trees, engine free list, result table)'
# Engine runs and trace writes hand batches from their source-ahead
# producer goroutine to the consumer, every request's span tree is
# written from concurrent sweep points and that producer, experiments,
# the server and trace replays all lease engines from one process-wide
# free list, and concurrent requests claim, join, finish and abandon
# entries of the server's result table; re-run their tests at several
# GOMAXPROCS values so real interleavings, not just the single-P
# schedule, pass the race detector.
go test -race -short -cpu 1,2,4 \
    -run 'TestSpan|TestDecodeAhead|TestWriteAll|TestPool|TestCoalescing|TestCacheHit|TestAbandoned|TestLRUCache|TestServerClose|TestOneExecutionPerDigest' \
    ./internal/sim/ ./internal/server/ ./internal/trace/ .

echo '>> fuzz smoke (10 s): FuzzSourceMatchesMathRand'
# The one fuzzer that runs past its seed corpus here: the workload
# generator's concrete random source must draw exactly math/rand's
# stream, or every pinned stream and golden result moves.
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 10s ./internal/workload

echo '>> benchmark smoke (10 iterations) + benchdiff report'
# Ten iterations, not one: the first iteration pays the engine and
# stage free-list warm-up, so a one-iteration run reports setup
# allocations that the steady-state baseline never sees.
go test -run '^$' \
    -bench '^(BenchmarkEngine|BenchmarkEngineTraced|BenchmarkEngineReplay|BenchmarkEngineTraceDriven|BenchmarkTraceDecodeColumnar|BenchmarkTraceEncodeColumnar)$' \
    -benchtime 10x -benchmem . | tee "$tmpdir/smokebench.out"
go test -run '^$' -bench '^BenchmarkBuildSource$' \
    -benchtime 10x -benchmem ./internal/sim | tee -a "$tmpdir/smokebench.out"
# Shape the smoke numbers with the shared awk and diff them against
# the committed baseline. Report mode only: ten-iteration timings are
# still too noisy to gate CI, but the report makes a creeping
# regression visible in every log; `make benchdiff` against a real
# bench.sh run is the gating form (DESIGN.md §17).
go build -o "$tmpdir/benchdiff" ./cmd/benchdiff
awk -f scripts/engine_bench_json.awk "$tmpdir/smokebench.out" >"$tmpdir/BENCH_engine_smoke.json"
"$tmpdir/benchdiff" -mode report -slack 3 BENCH_engine.json "$tmpdir/BENCH_engine_smoke.json"

echo '>> trace smoke (trace vs generator)'
# Writing a generated stream to a trace must not alter it: mlpsim on the
# trace must print the direct synthetic run's statistics byte for byte.
# One node, because trace runs never attach coherence traffic.
go build -o "$tmpdir/tracegen" ./cmd/tracegen
go build -o "$tmpdir/mlpsim" ./cmd/mlpsim
# trace_smoke WORKLOAD TRACEGEN_FLAGS MLPSIM_FLAGS (flags word-split on purpose)
trace_smoke() {
    "$tmpdir/tracegen" -workload "$1" -n 30000 $2 -o "$tmpdir/smoke-$1.trace" >/dev/null
    "$tmpdir/mlpsim" -trace "$tmpdir/smoke-$1.trace" -warm 10000 -nodes 1 $3 -v >"$tmpdir/$1-trace.stats"
    "$tmpdir/mlpsim" -workload "$1" -insts 20000 -warm 10000 -nodes 1 $3 -v >"$tmpdir/$1-synthetic.stats"
    diff "$tmpdir/$1-trace.stats" "$tmpdir/$1-synthetic.stats" || {
        echo "mlpsim statistics diverge between the $1 trace and its generator"
        exit 1
    }
}
trace_smoke tpcw '' ''
trace_smoke specjbb -wc '-model wc'
trace_smoke specweb -sle -sle
echo 'trace vs generator: OK (identical statistics for PC, WC and SLE)'

echo '>> mlpsimd smoke test (with observability checks)'
go build -o "$tmpdir/mlpsimd" ./cmd/mlpsimd
go build -o "$tmpdir/mlpload" ./cmd/mlpload
"$tmpdir/mlpsimd" -addr 127.0.0.1:0 -drain 10s -trace-out "$tmpdir/run.trace.json" \
    >"$tmpdir/mlpsimd.out" 2>"$tmpdir/mlpsimd.log" &
smoke_pid=$!
addr=''
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^mlpsimd listening on //p' "$tmpdir/mlpsimd.out")
    [ -n "$addr" ] && break
    kill -0 "$smoke_pid" 2>/dev/null || { echo 'mlpsimd died at startup'; cat "$tmpdir/mlpsimd.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo 'mlpsimd never became ready'; exit 1; }
# /healthz + real runs through the client (also exercises the cache
# path); -scrape then grammar-checks /metrics and shape-checks the
# retained request traces;
# -slow-out captures the slowest-request listing as an artifact.
"$tmpdir/mlpload" -addr "http://$addr" -workloads database -insts 20000 -warm 10000 \
    -repeat 1 -concurrency 2 -mode warm -scrape -slow-out "$tmpdir/slow.json"
kill -INT "$smoke_pid"
wait "$smoke_pid" || { echo 'mlpsimd did not shut down cleanly'; cat "$tmpdir/mlpsimd.log"; exit 1; }
smoke_pid=''
grep -q 'mlpsimd stopped' "$tmpdir/mlpsimd.out" || { echo 'missing clean-shutdown marker'; exit 1; }
# -trace-out must have dumped the retained request traces at shutdown,
# with the engine's detail (its fold span) nested in them.
[ -s "$tmpdir/run.trace.json" ] || { echo 'trace-out file missing or empty'; exit 1; }
grep -q '"traceEvents"' "$tmpdir/run.trace.json" || { echo 'trace-out file lacks traceEvents'; exit 1; }
grep -q '"name":"simulate"' "$tmpdir/run.trace.json" || { echo 'trace-out has no simulate spans'; exit 1; }
grep -q '"name":"fold"' "$tmpdir/run.trace.json" || { echo 'trace-out has no engine fold spans'; exit 1; }
# The slow-request ring must have retained the load run's requests with
# per-stage attributions, and the trace IDs it reports must be the same
# ones stitched into the daemon's completion log lines.
[ -s "$tmpdir/slow.json" ] || { echo 'slow.json missing or empty'; exit 1; }
grep -q '"stages_ms"' "$tmpdir/slow.json" || { echo 'slow.json lacks per-stage timings'; exit 1; }
grep -q '"simulate"' "$tmpdir/slow.json" || { echo 'slow.json has no simulate stage'; exit 1; }
slow_trace_id=$(sed -n 's/.*"trace_id": *"\([^"]*\)".*/\1/p' "$tmpdir/slow.json" | head -n 1)
[ -n "$slow_trace_id" ] || { echo 'slow.json has no trace_id'; exit 1; }
grep -q "trace_id=$slow_trace_id" "$tmpdir/mlpsimd.log" || {
    echo "trace $slow_trace_id from /debug/obs/slow not stitched into the request log"
    exit 1
}
echo 'smoke: OK (incl. metrics grammar, trace export, slow-request capture)'

echo 'check: OK'
