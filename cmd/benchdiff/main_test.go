package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestFlattenPaths(t *testing.T) {
	m, err := load("testdata/engine_base.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"engine.ns_per_op":                 40000000,
		"engine.traced_allocs_per_op":      58,
		"trace_codec.encode_ns_per_op":     10000000,
		"trace_codec.encode_insts_per_sec": 20000000,
	}
	for p, v := range want {
		if got, ok := m[p]; !ok || got != v {
			t.Errorf("flatten[%q] = %v, %v; want %v, true", p, got, ok, v)
		}
	}
	if _, ok := m["bench"]; ok {
		t.Error("string leaf should not flatten to a metric")
	}

	// No committed benchmark emits an array today; flatten still
	// indexes one so a future list-shaped section diffs per element.
	var v interface{}
	if err := json.Unmarshal([]byte(`{"bench":"x","runs":[{"ns_per_op":1},{"ns_per_op":2,"ok":true}]}`), &v); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	flatten("", v, got)
	if want := map[string]float64{"runs[0].ns_per_op": 1, "runs[1].ns_per_op": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("array flatten = %v, want %v", got, want)
	}
}

func TestRuleDirections(t *testing.T) {
	cases := []struct {
		path  string
		worse float64 // 0 = informational (no rule)
	}{
		{"engine.ns_per_op", +1},
		{"trace_codec.encode_ns_per_op", +1},
		{"engine.allocs_per_op", +1},
		{"engine.traced_allocs_per_op", +1},
		{"engine.insts_per_sec", -1},
		{"trace_codec.encode_insts_per_sec", -1},
		{"engine.speedup_vs_baseline", -1},
		{"speedup", -1},
		{"cold.p99_ms", +1},
		{"cold.throughput_rps", -1},
		{"cold.errors", +1},
		{"engine.tracer_overhead", +1},
		{"source.pc_ns_per_inst", +1},
		{"source.wc_ns_per_inst", +1},
		{"source.wc_sle_ns_per_inst", +1},
		{"source.wc_sle_allocs_per_op", +1},
		{"source.insts_per_op", 0},
		{"engine.insts_per_op", 0}, // workload size, not a measurement
		{"engine.num_cpu", 0},
		{"grid_points", 0},
	}
	for _, c := range cases {
		r := ruleFor(c.path)
		switch {
		case c.worse == 0 && r != nil:
			t.Errorf("ruleFor(%q) = %+v, want informational", c.path, r)
		case c.worse != 0 && r == nil:
			t.Errorf("ruleFor(%q) = nil, want worse=%v", c.path, c.worse)
		case r != nil && r.worse != c.worse:
			t.Errorf("ruleFor(%q).worse = %v, want %v", c.path, r.worse, c.worse)
		}
	}
}

// The acceptance fixture: a 20% ns_per_op regression (tolerance 10%)
// in each section must trip the gate, and the matching
// throughput/speedup drops ride along. Report mode sees the same
// findings but exits 0.
func TestGateOnRegressionFixture(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-mode", "gate", "testdata/engine_base.json", "testdata/engine_regress.json"}, &out, &errw)
	if code != 1 {
		t.Fatalf("gate mode exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	for _, want := range []string{
		"REGRESS engine_base.engine.ns_per_op",
		"REGRESS engine_base.engine.insts_per_sec",
		"REGRESS engine_base.engine.speedup_vs_baseline",
		"REGRESS engine_base.trace_codec.encode_ns_per_op",
		"REGRESS engine_base.trace_codec.encode_insts_per_sec",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// Within-tolerance drift must stay quiet: traced 41.0ms->41.1ms,
	// trace_codec 6.00ms->6.05ms, its throughput up.
	for _, quiet := range []string{"traced_ns_per_op", "trace_codec.ns_per_op", "trace_codec.insts_per_sec"} {
		if strings.Contains(out.String(), quiet) {
			t.Errorf("within-tolerance metric %s flagged:\n%s", quiet, out.String())
		}
	}

	out.Reset()
	code = run([]string{"-mode", "report", "testdata/engine_base.json", "testdata/engine_regress.json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("report mode exit = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "REGRESS") {
		t.Error("report mode should still print the regressions")
	}
}

// The committed baselines compared against themselves are clean — the
// shape bench.sh emits flows through flatten/diff without findings.
func TestCleanOnCommittedBaselines(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"../../BENCH_engine.json", "../../BENCH_engine.json",
		"../../BENCH_serve.json", "../../BENCH_serve.json",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if strings.Contains(out.String(), "REGRESS") || strings.Contains(out.String(), "NOTE") {
		t.Errorf("self-diff should be silent:\n%s", out.String())
	}
}

func TestSlackWidensTolerance(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-slack", "3", "testdata/engine_base.json", "testdata/engine_regress.json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("slack 3 exit = %d, want 0 (20%% drift under 30%% tolerance)\n%s", code, out.String())
	}
}

func TestZeroBaselineErrorsGate(t *testing.T) {
	base := map[string]float64{"cold.errors": 0}
	fresh := map[string]float64{"cold.errors": 1}
	var out bytes.Buffer
	if regs := diff(base, fresh, 1, false, "serve", &out); len(regs) != 1 {
		t.Fatalf("errors 0->1 findings = %d, want 1\n%s", len(regs), out.String())
	}
}

// A negative baseline keeps the rule's direction: tracer_overhead going
// from -0.0209 to -0.039 is an improvement, and to -0.005 a 76% rise
// past the 50% tolerance.
func TestNegativeBaselineDirection(t *testing.T) {
	base := map[string]float64{"engine.tracer_overhead": -0.0209}
	var out bytes.Buffer
	better := map[string]float64{"engine.tracer_overhead": -0.039}
	if regs := diff(base, better, 1, false, "engine", &out); len(regs) != 0 {
		t.Errorf("-0.0209 -> -0.039 flagged as a regression:\n%s", out.String())
	}
	worse := map[string]float64{"engine.tracer_overhead": -0.005}
	regs := diff(base, worse, 1, false, "engine", &out)
	if len(regs) != 1 {
		t.Fatalf("-0.0209 -> -0.005 findings = %d, want 1\n%s", len(regs), out.String())
	}
	if want := (0.0209 - 0.005) / 0.0209; math.Abs(regs[0].drift-want) > 1e-9 {
		t.Errorf("drift = %v, want %v", regs[0].drift, want)
	}
}

func TestMissingMetricNotesButPasses(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"testdata/serve_base.json", "testdata/engine_base.json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("disjoint files exit = %d, want 0 (missing metrics never gate)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "metric missing from fresh run") ||
		!strings.Contains(out.String(), "new metric (no baseline)") {
		t.Errorf("expected missing/new metric notes:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code := run([]string{"only-one.json"}, &out, &errw); code != 2 {
		t.Errorf("odd file count exit = %d, want 2", code)
	}
	if code := run([]string{"-mode", "panic", "a.json", "b.json"}, &out, &errw); code != 2 {
		t.Errorf("bad mode exit = %d, want 2", code)
	}
	if code := run([]string{"testdata/nope.json", "testdata/engine_base.json"}, &out, &errw); code != 2 {
		t.Errorf("missing file exit = %d, want 2", code)
	}
}
