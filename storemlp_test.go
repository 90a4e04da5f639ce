package storemlp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"storemlp/internal/server"
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

// TestTraceMatchesSynthetic is the trace-fidelity gate: for the four
// paper workloads under PC, WC and SLE, writing the generated stream to
// a trace and replaying it must reproduce the direct synthetic run's
// statistics exactly. Any divergence means the codec altered the
// stream the generator produced. One node: trace runs never attach
// coherence traffic, so the synthetic run must not either.
func TestTraceMatchesSynthetic(t *testing.T) {
	const insts, warm = 20_000, 10_000
	pc := DefaultConfig()
	pc.Nodes = 1
	wc, sle := pc, pc
	wc.Model = WC
	sle.SLE = true
	for _, w := range AllWorkloads(1) {
		for name, cfg := range map[string]Config{"PC": pc, "WC": wc, "SLE": sle} {
			var buf bytes.Buffer
			if _, err := WriteTrace(&buf, w, cfg, insts+warm); err != nil {
				t.Fatal(err)
			}
			fromTrace, err := RunTrace(&buf, cfg, warm)
			if err != nil {
				t.Fatalf("%s %s: RunTrace: %v", w.Name, name, err)
			}
			synthetic, err := Run(RunSpec{Workload: w, Config: cfg, Insts: insts, Warm: warm})
			if err != nil {
				t.Fatalf("%s %s: Run: %v", w.Name, name, err)
			}
			if !reflect.DeepEqual(fromTrace, synthetic) {
				t.Errorf("%s %s: trace run diverges from the synthetic run:\ntrace:     %+v\nsynthetic: %+v",
					w.Name, name, fromTrace, synthetic)
			}
		}
	}
}

// TestDecodeAheadFacade runs the trace entry points with one P (inline
// decode) and with two (decode ahead on a second goroutine): every
// entry point returns the same statistics either way, and a cancelled
// file run returns the context's error before the file is unmapped.
func TestDecodeAheadFacade(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := DefaultConfig()
	var columnar bytes.Buffer
	if _, err := WriteTrace(&columnar, SPECweb(3), cfg, 60_000); err != nil {
		t.Fatal(err)
	}
	colPath := filepath.Join(t.TempDir(), "columnar.trace")
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
	if _, err := WriteTraceFormat(&buf, Database(1), DefaultConfig(), 10, TraceFormat(0)); err == nil {
		t.Error("a format other than TraceColumnar should error")
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

// forEachLeaf visits every scalar leaf under v, recursing into nested
// structs, and calls fn with the dotted path. An unexported field fails
// the test: the reflective digest skips it, so two specs that differ
// only there would share a digest and a cached result.
func forEachLeaf(t *testing.T, path string, v reflect.Value, fn func(path string, leaf reflect.Value)) {
	if v.Kind() == reflect.Struct {
		typ := v.Type()
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				t.Errorf("%s.%s is unexported, so the digest does not cover it", path, typ.Field(i).Name)
				continue
			}
			forEachLeaf(t, path+"."+typ.Field(i).Name, v.Field(i), fn)
		}
		return
	}
	fn(path, v)
}

// TestConfigDigestSensitivity is the cache-correctness keystone: every
// single scalar field of the RunSpec — workload calibration, machine
// configuration (including nested cache and SMAC geometry), and the
// run scalars — must change the digest when changed. A field the digest
// ignores is a field on which the serving cache would silently return a
// wrong result.
func TestConfigDigestSensitivity(t *testing.T) {
	base := ConfigDigest(baseSpec())
	seen := map[string]string{"": base}
	count := 0
	spec := baseSpec()
	forEachLeaf(t, "spec", reflect.ValueOf(&spec).Elem(), func(path string, _ reflect.Value) {
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

// TestConfigDigestMatchesService: the facade's digest of a run is the
// digest /v1/run reports for the same workload, seed, config, insts and
// warm, so a result from either side traces back to one key.
func TestConfigDigestMatchesService(t *testing.T) {
	svc := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()

	wc, smac := "wc", 4096
	tuned := DefaultConfig()
	tuned.Model, tuned.SMACEntries = WC, smac
	cases := []struct {
		req  server.RunRequest
		spec RunSpec
	}{
		{
			server.RunRequest{Workload: "database", Seed: 1, Insts: 20_000, Warm: 10_000},
			RunSpec{Workload: Database(1), Config: DefaultConfig(), Insts: 20_000, Warm: 10_000},
		},
		{
			server.RunRequest{Workload: "tpcw", Seed: 3, Insts: 15_000, Warm: 5_000,
				Config:         &server.ConfigPatch{Model: &wc, SMACEntries: &smac},
				DisableTraffic: true, SharedCore: true},
			RunSpec{Workload: TPCW(3), Config: tuned, Insts: 15_000, Warm: 5_000,
				DisableTraffic: true, SharedCore: true},
		},
	}
	for _, c := range cases {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out server.RunResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/run status %d, decode error %v", c.req.Workload, resp.StatusCode, err)
		}
		if got := ConfigDigest(c.spec); got != out.Digest {
			t.Errorf("%s: ConfigDigest = %s, /v1/run digest = %s", c.req.Workload, got, out.Digest)
		}
	}
}

// TestRunCycleLevelValidates: the cycle-level entry point refuses every
// spec Run refuses, with an error rather than empty statistics or a
// panic, and runs a valid one.
func TestRunCycleLevelValidates(t *testing.T) {
	good := RunSpec{Workload: SPECjbb(1), Config: DefaultConfig(), Insts: 20_000, Warm: 10_000}
	cases := []struct {
		name string
		mut  func(*RunSpec)
	}{
		{"zero insts", func(s *RunSpec) { s.Insts = 0 }},
		{"negative warm", func(s *RunSpec) { s.Warm = -1 }},
		{"negative store burst mean", func(s *RunSpec) { s.Workload.StoreBurstMean = -1 }},
		{"zero ROB", func(s *RunSpec) { s.Config.ROB = 0 }},
	}
	// cycleLevel turns a panic into an error so one bad case cannot
	// take the rest of the table down with it.
	cycleLevel := func(s RunSpec) (st *CycleStats, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return RunCycleLevel(s)
	}
	for _, c := range cases {
		s := good
		c.mut(&s)
		if _, err := Run(s); err == nil {
			t.Fatalf("%s: Run accepted the spec", c.name)
		}
		st, err := cycleLevel(s)
		if err == nil || st != nil {
			t.Errorf("%s: RunCycleLevel returned (%+v, %v), want (nil, error)", c.name, st, err)
		} else if strings.HasPrefix(err.Error(), "panic: ") {
			t.Errorf("%s: RunCycleLevel %v, want an error", c.name, err)
		}
	}
	st, err := RunCycleLevel(good)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != good.Insts {
		t.Errorf("valid spec measured %d insts, want %d", st.Insts, good.Insts)
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
