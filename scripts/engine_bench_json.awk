# Turns `go test -bench` output for the engine suite into the
# BENCH_engine.json benchmark record. Shared by scripts/bench.sh
# (best-of-N numbers committed as the baseline) and scripts/check.sh
# (1-iteration smoke numbers diffed against the baseline with
# cmd/benchdiff in report mode).
#
# Inputs (all optional, via awk -v):
#   eng_base_ns      pre-optimization engine ns/op baseline
#   eng_base_allocs  pre-optimization engine allocs/op baseline
#   num_cpu          host CPU count recorded in the engine section
BEGIN {
    # Pre-optimization engine baseline (map-based epoch records,
    # per-inst Next() trace pull), measured on the same 500k-instruction
    # benchmark.
    if (eng_base_ns == 0) eng_base_ns = 80420000
    if (eng_base_allocs == 0) eng_base_allocs = 10349
    # The removed legacy record-at-a-time trace decoder on the same
    # 200k-instruction decode benchmark, as last measured before its
    # removal; the columnar decoder is measured live against it.
    leg_ns = 10977207
    leg_allocs = 200007
    if (num_cpu == 0) num_cpu = 1
}
$1 ~ /^BenchmarkEngine(-[0-9]+)?$/                { if (eng_ns == 0 || $3 < eng_ns) { eng_ns = $3; eng_allocs = $(NF-1) } }
$1 ~ /^BenchmarkEngineTraced(-[0-9]+)?$/          { if (trc_ns == 0 || $3 < trc_ns) { trc_ns = $3; trc_allocs = $(NF-1) } }
$1 ~ /^BenchmarkEngineReplay(-[0-9]+)?$/          { if (rep_ns == 0 || $3 < rep_ns) { rep_ns = $3; rep_allocs = $(NF-1) } }
$1 ~ /^BenchmarkEngineTraceDriven(-[0-9]+)?$/     { if (td_ns == 0  || $3 < td_ns)  { td_ns = $3;  td_allocs = $(NF-1) } }
$1 ~ /^BenchmarkTraceDecodeColumnar(-[0-9]+)?$/   { if (col_ns == 0 || $3 < col_ns) { col_ns = $3; col_allocs = $(NF-1) } }
$1 ~ /^BenchmarkTraceEncodeColumnar(-[0-9]+)?$/   { if (enc_ns == 0 || $3 < enc_ns) { enc_ns = $3; enc_allocs = $(NF-1) } }
END {
    if (eng_ns == 0 || trc_ns == 0 || rep_ns == 0 || td_ns == 0 || col_ns == 0 || enc_ns == 0) {
        print "bench parse failure" > "/dev/stderr"; exit 1
    }
    eng_insts = 500000; cod_insts = 200000
    printf "{\n"
    printf "  \"engine\": {\n"
    printf "    \"ns_per_op\": %d,\n    \"insts_per_op\": %d,\n", eng_ns, eng_insts
    printf "    \"insts_per_sec\": %.0f,\n    \"allocs_per_op\": %d,\n", eng_insts * 1e9 / eng_ns, eng_allocs
    printf "    \"baseline_ns_per_op\": %d,\n    \"baseline_insts_per_sec\": %.0f,\n", eng_base_ns, eng_insts * 1e9 / eng_base_ns
    printf "    \"baseline_allocs_per_op\": %d,\n", eng_base_allocs
    printf "    \"speedup_vs_baseline\": %.3f,\n", eng_base_ns / eng_ns
    printf "    \"traced_ns_per_op\": %d,\n    \"traced_allocs_per_op\": %d,\n", trc_ns, trc_allocs
    printf "    \"tracer_overhead\": %.4f,\n", trc_ns / eng_ns - 1
    printf "    \"replay_ns_per_op\": %d,\n    \"replay_allocs_per_op\": %d,\n", rep_ns, rep_allocs
    printf "    \"trace_driven_ns_per_op\": %d,\n    \"trace_driven_allocs_per_op\": %d,\n", td_ns, td_allocs
    printf "    \"trace_driven_insts_per_sec\": %.0f,\n", eng_insts * 1e9 / td_ns
    printf "    \"trace_driven_vs_synthetic\": %.3f,\n", td_ns / eng_ns
    printf "    \"num_cpu\": %d\n  },\n", num_cpu
    printf "  \"trace_codec\": {\n"
    printf "    \"ns_per_op\": %d,\n    \"insts_per_op\": %d,\n", col_ns, cod_insts
    printf "    \"insts_per_sec\": %.0f,\n    \"allocs_per_op\": %d,\n", cod_insts * 1e9 / col_ns, col_allocs
    printf "    \"baseline_ns_per_op\": %d,\n    \"baseline_allocs_per_op\": %d,\n", leg_ns, leg_allocs
    printf "    \"speedup_vs_baseline\": %.3f,\n", leg_ns / col_ns
    printf "    \"encode_ns_per_op\": %d,\n    \"encode_allocs_per_op\": %d,\n", enc_ns, enc_allocs
    printf "    \"encode_insts_per_sec\": %.0f\n  }\n", cod_insts * 1e9 / enc_ns
    printf "}\n"
}
