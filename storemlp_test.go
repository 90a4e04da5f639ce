package storemlp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestRunFacade(t *testing.T) {
	s, err := Run(RunSpec{
		Workload: TPCW(1),
		Config:   DefaultConfig(),
		Insts:    200_000,
		Warm:     100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Insts != 200_000 {
		t.Errorf("Insts = %d", s.Insts)
	}
	if s.EPI() <= 0 || s.MLP() <= 0 {
		t.Errorf("EPI=%v MLP=%v", s.EPI(), s.MLP())
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("specweb", 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "specweb" {
		t.Errorf("Name = %q", w.Name)
	}
	if _, err := WorkloadByName("nope", 3); err == nil {
		t.Error("unknown workload should error")
	}
	if got := AllWorkloads(1); len(got) != 4 {
		t.Errorf("AllWorkloads = %d entries", len(got))
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig()
	n, err := WriteTrace(&buf, SPECjbb(2), cfg, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 150_000 {
		t.Fatalf("wrote %d records", n)
	}
	s, err := RunTrace(&buf, cfg, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Insts != 100_000 {
		t.Errorf("measured %d insts", s.Insts)
	}
	if s.EPI() <= 0 {
		t.Error("trace-driven run should produce epochs")
	}
}

// TestTraceFormatsEquivalent is the codec-neutrality gate: the same
// generated stream encoded legacy and columnar must drive the epoch
// engine to bit-identical statistics. Any divergence means one codec
// altered the instruction stream.
func TestTraceFormatsEquivalent(t *testing.T) {
	cfg := DefaultConfig()
	var legacy, columnar bytes.Buffer
	if _, err := WriteTraceFormat(&legacy, Database(5), cfg, 120_000, TraceLegacy); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTraceFormat(&columnar, Database(5), cfg, 120_000, TraceColumnar); err != nil {
		t.Fatal(err)
	}
	sLegacy, err := RunTrace(&legacy, cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	sColumnar, err := RunTrace(&columnar, cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sLegacy, sColumnar) {
		t.Errorf("stats diverge between codecs:\nlegacy:   %+v\ncolumnar: %+v", sLegacy, sColumnar)
	}
	if sLegacy.Insts != 100_000 {
		t.Errorf("measured %d insts, want 100000", sLegacy.Insts)
	}
}

// TestDecodeAheadFacade runs the trace entry points with one P (inline
// decode) and with two (decode ahead on a second goroutine): every
// entry point and format returns the same statistics either way, and a
// cancelled file run returns the context's error before the file is
// unmapped.
func TestDecodeAheadFacade(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := DefaultConfig()
	dir := t.TempDir()
	var legacy, columnar bytes.Buffer
	if _, err := WriteTraceFormat(&legacy, SPECweb(3), cfg, 60_000, TraceLegacy); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTraceFormat(&columnar, SPECweb(3), cfg, 60_000, TraceColumnar); err != nil {
		t.Fatal(err)
	}
	legPath, colPath := filepath.Join(dir, "legacy.trace"), filepath.Join(dir, "columnar.trace")
	if err := os.WriteFile(legPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(colPath, columnar.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var want *Stats
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		runs := []struct {
			name string
			run  func() (*Stats, error)
		}{
			{"RunTraceFile columnar", func() (*Stats, error) { return RunTraceFile(colPath, cfg, 20_000) }},
			{"RunTraceFile legacy", func() (*Stats, error) { return RunTraceFile(legPath, cfg, 20_000) }},
			{"RunTrace columnar", func() (*Stats, error) { return RunTrace(bytes.NewReader(columnar.Bytes()), cfg, 20_000) }},
		}
		for _, r := range runs {
			s, err := r.run()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, r.name, err)
			}
			if want == nil {
				want = s
			} else if *s != *want {
				t.Errorf("GOMAXPROCS=%d %s diverges:\n got  %+v\n want %+v", procs, r.name, *s, *want)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if s, err := RunTraceFileContext(ctx, colPath, cfg, 20_000); !errors.Is(err, context.Canceled) || s != nil {
			t.Errorf("GOMAXPROCS=%d cancelled file run: (%v, %v), want (nil, context.Canceled)", procs, s, err)
		}
	}
}

// TestConvertTraceFacade checks the facade-level converter preserves
// counts and produces the requested encoding.
func TestConvertTraceFacade(t *testing.T) {
	cfg := DefaultConfig()
	var legacy bytes.Buffer
	if _, err := WriteTraceFormat(&legacy, TPCW(3), cfg, 60_000, TraceLegacy); err != nil {
		t.Fatal(err)
	}
	var col bytes.Buffer
	n, err := ConvertTrace(&col, bytes.NewReader(legacy.Bytes()), TraceColumnar)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60_000 {
		t.Errorf("converted %d insts, want 60000", n)
	}
	if got := string(col.Bytes()[:4]); got != "SMLC" {
		t.Errorf("converted magic = %q, want SMLC", got)
	}
	s, err := RunTrace(&col, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Insts != 60_000 {
		t.Errorf("converted trace drove %d insts, want 60000", s.Insts)
	}
	if _, err := ParseTraceFormat("nope"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestWriteTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	bad := Database(1)
	bad.Name = ""
	if _, err := WriteTrace(&buf, bad, DefaultConfig(), 10); err == nil {
		t.Error("invalid workload should error")
	}
	cfg := DefaultConfig()
	cfg.ROB = 0
	if _, err := WriteTrace(&buf, Database(1), cfg, 10); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := WriteTrace(&buf, Database(1), DefaultConfig(), 0); err == nil {
		t.Error("zero length should error")
	}
	if _, err := RunTrace(bytes.NewBufferString("JUNKJUNK"), DefaultConfig(), 0); err == nil {
		t.Error("junk trace should error")
	}
}

func TestWCTraceGeneration(t *testing.T) {
	var pcBuf, wcBuf bytes.Buffer
	pcCfg := DefaultConfig()
	if _, err := WriteTrace(&pcBuf, TPCW(1), pcCfg, 50_000); err != nil {
		t.Fatal(err)
	}
	wcCfg := DefaultConfig()
	wcCfg.Model = WC
	if _, err := WriteTrace(&wcBuf, TPCW(1), wcCfg, 50_000); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pcBuf.Bytes(), wcBuf.Bytes()) {
		t.Error("WC trace should differ from PC trace")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, RunSpec{
		Workload: Database(1), Config: DefaultConfig(), Insts: 1_000_000, Warm: 0,
	})
	if err == nil {
		t.Fatal("cancelled run should error")
	}
	if ctx.Err() == nil || err.Error() != ctx.Err().Error() {
		t.Errorf("err = %v, want %v", err, ctx.Err())
	}
}

func baseSpec() RunSpec {
	return RunSpec{Workload: Database(1), Config: DefaultConfig(), Insts: 1000, Warm: 100}
}

func TestConfigDigestStable(t *testing.T) {
	a, b := ConfigDigest(baseSpec()), ConfigDigest(baseSpec())
	if a != b {
		t.Fatalf("identical specs digest differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not sha256 hex", a)
	}
	for i := 0; i < 50; i++ { // map iteration order must not leak in
		if ConfigDigest(baseSpec()) != a {
			t.Fatal("digest unstable across calls")
		}
	}
}

// perturb returns a changed copy of the scalar leaf v.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		return false
	}
	return true
}

// forEachLeaf visits every settable scalar leaf under v, recursing into
// nested structs, and calls fn with the dotted path.
func forEachLeaf(path string, v reflect.Value, fn func(path string, leaf reflect.Value)) {
	if v.Kind() == reflect.Struct {
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			forEachLeaf(path+"."+t.Field(i).Name, v.Field(i), fn)
		}
		return
	}
	fn(path, v)
}

// TestConfigDigestSensitivity is the cache-correctness keystone: every
// single scalar field of the RunSpec — workload calibration, machine
// configuration (including nested cache/branch/SMAC geometry), and the
// run scalars — must change the digest when changed. A field the digest
// ignores is a field on which the serving cache would silently return a
// wrong result.
func TestConfigDigestSensitivity(t *testing.T) {
	base := ConfigDigest(baseSpec())
	seen := map[string]string{"": base}
	count := 0
	spec := baseSpec()
	forEachLeaf("spec", reflect.ValueOf(&spec).Elem(), func(path string, _ reflect.Value) {
		fresh := baseSpec()
		// Re-resolve the same path on a fresh copy and perturb it.
		leaf := reflect.ValueOf(&fresh).Elem()
		for _, name := range splitPath(path)[1:] {
			leaf = leaf.FieldByName(name)
		}
		if !perturb(leaf) {
			t.Fatalf("%s: unperturbable kind %s", path, leaf.Kind())
		}
		d := ConfigDigest(fresh)
		if prev, dup := seen[d]; dup {
			t.Errorf("%s: perturbation did not change digest (collides with %q)", path, prev)
		}
		seen[d] = path
		count++
	})
	if count < 40 {
		t.Fatalf("visited only %d leaves; RunSpec traversal is broken", count)
	}
}

func splitPath(p string) []string {
	var parts []string
	for len(p) > 0 {
		i := 0
		for i < len(p) && p[i] != '.' {
			i++
		}
		if p[:i] != "" {
			parts = append(parts, p[:i])
		}
		if i == len(p) {
			break
		}
		p = p[i+1:]
	}
	return parts
}

func TestOverallCPI(t *testing.T) {
	s, err := Run(RunSpec{Workload: SPECweb(1), Config: DefaultConfig(), Insts: 100_000, Warm: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	overall := OverallCPI(1.38, 0.2, s, 500)
	if overall <= 1.38*0.8 {
		t.Errorf("overall CPI = %v should exceed the on-chip part", overall)
	}
	var zero Stats
	if OverallCPI(1.0, 0, &zero, 500) != 0 {
		t.Error("zero stats should give 0")
	}
}
