package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"storemlp/internal/epoch"
	"storemlp/internal/obs"
	"storemlp/internal/server"
	"storemlp/internal/sim"

	"io"
	"log/slog"
)

// stubService serves a real server.Server with a fake engine: cold
// (nocache) requests pay sleep, warm ones hit the cache.
func stubService(t *testing.T, delay time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var execs atomic.Int64
	s := server.New(server.Config{
		Workers: 4,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Runner: func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
			execs.Add(1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &epoch.Stats{Insts: spec.Insts, Epochs: spec.Insts / 100}, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, &execs
}

func TestGridShape(t *testing.T) {
	pts := grid([]string{"database", "tpcw", "specjbb", "specweb"}, 1000, 500)
	if len(pts) != 64 {
		t.Fatalf("grid has %d points, want 64", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		key := p.Workload
		key += string(rune('0' + *p.Config.StorePrefetch))
		b, _ := json.Marshal(p.Config)
		seen[key+string(b)] = true
		if p.Insts != 1000 || p.Warm != 500 {
			t.Fatalf("point sizes wrong: %+v", p)
		}
	}
	if len(seen) != 64 {
		t.Fatalf("grid has %d distinct points, want 64", len(seen))
	}
}

func TestLoadColdVsWarm(t *testing.T) {
	ts, execs := stubService(t, 10*time.Millisecond)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_serve.json")

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL,
		"-workloads", "database,tpcw",
		"-insts", "1000", "-warm", "0",
		"-concurrency", "4", "-repeat", "2",
		"-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatalf("mlpload: %v (output %s)", err, out.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 prefetch x 2 sb x 4 sq = 32-point grid.
	if rec.GridPoints != 32 {
		t.Errorf("grid points = %d, want 32", rec.GridPoints)
	}
	if rec.Cold.Requests != 64 || rec.Cold.Errors != 0 {
		t.Errorf("cold phase: %+v", rec.Cold)
	}
	if rec.WarmPhase.Requests != 64 || rec.WarmPhase.Errors != 0 {
		t.Errorf("warm phase: %+v", rec.WarmPhase)
	}
	// Cold executes every request; warm executes only the priming pass.
	// 64 cold + 32 priming = 96 engine runs total.
	if got := execs.Load(); got != 96 {
		t.Errorf("engine executions = %d, want 96", got)
	}
	if rec.WarmPhase.Cached != 64 {
		t.Errorf("warm cached = %d, want 64", rec.WarmPhase.Cached)
	}
	if rec.Speedup <= 1 {
		t.Errorf("speedup = %.2f, want > 1 (cold pays %v per request)", rec.Speedup, 10*time.Millisecond)
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Errorf("output missing speedup line: %s", out.String())
	}
}

func TestLoadServerUnreachable(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", "http://127.0.0.1:1", "-timeout", "1s"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("err = %v, want unreachable", err)
	}
}

func TestLoadFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-mode", "hot"},
		{"-concurrency", "0"},
		{"-repeat", "0"},
		{"-workloads", " , "},
	} {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestLatencyHistogram checks the streaming estimator the phases use:
// percentiles come out ordered and within one bucket of the truth.
func TestLatencyHistogram(t *testing.T) {
	h := obs.NewHistogram(latencyBuckets)
	// 90 fast requests at ~1ms, 10 slow at ~100ms.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.100)
	}
	p50 := h.Quantile(0.50) * 1000
	p95 := h.Quantile(0.95) * 1000
	p99 := h.Quantile(0.99) * 1000
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles unordered: p50=%.3f p95=%.3f p99=%.3f", p50, p95, p99)
	}
	if p50 < 0.5 || p50 > 2 {
		t.Errorf("p50 = %.3fms, want ~1ms", p50)
	}
	if p99 < 50 || p99 > 200 {
		t.Errorf("p99 = %.3fms, want ~100ms", p99)
	}
	if obs.NewHistogram(latencyBuckets).Quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
}

// TestValidateTraceView: the scrape check accepts the server's trace
// view shape and rejects unnamed processes, rootless traces and
// dangling parents.
func TestValidateTraceView(t *testing.T) {
	const good = `{"traceEvents":[
		{"name":"process_name","ph":"M","pid":1,"args":{"name":"t1 POST /v1/run"}},
		{"name":"request","ph":"X","dur":5,"pid":1,"args":{"span":0,"parent":-1,"arg":0}},
		{"name":"simulate","ph":"X","dur":3,"pid":1,"args":{"span":1,"parent":0,"arg":0}},
		{"name":"measure_start","ph":"i","pid":1,"args":{"span":2,"parent":1,"arg":0}}]}`
	if traces, events, err := validateTraceView(strings.NewReader(good)); err != nil || traces != 1 || events != 3 {
		t.Errorf("good view: (%d traces, %d events, %v), want (1, 3, nil)", traces, events, err)
	}
	for name, doc := range map[string]string{
		"not json":  `{"traceEvents":`,
		"unnamed":   `{"traceEvents":[{"name":"request","ph":"X","pid":1,"args":{"span":0,"parent":-1}}]}`,
		"no root":   `{"traceEvents":[{"name":"process_name","ph":"M","pid":1},{"name":"simulate","ph":"X","pid":1,"args":{"span":1,"parent":-1}}]}`,
		"dangling":  `{"traceEvents":[{"name":"process_name","ph":"M","pid":1},{"name":"request","ph":"X","pid":1,"args":{"span":0,"parent":-1}},{"name":"fold","ph":"X","pid":1,"args":{"span":1,"parent":7}}]}`,
		"no args":   `{"traceEvents":[{"name":"process_name","ph":"M","pid":1},{"name":"request","ph":"X","pid":1}]}`,
		"bad phase": `{"traceEvents":[{"name":"process_name","ph":"M","pid":1},{"name":"request","ph":"B","pid":1,"args":{"span":0,"parent":-1}}]}`,
	} {
		if _, _, err := validateTraceView(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScrapeMode: -scrape validates the daemon's /metrics exposition
// and trace export after the load phases.
func TestScrapeMode(t *testing.T) {
	ts, _ := stubService(t, 0)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL,
		"-workloads", "database",
		"-insts", "1000", "-warm", "0",
		"-concurrency", "2", "-repeat", "1",
		"-mode", "warm",
		"-scrape",
	}, &out)
	if err != nil {
		t.Fatalf("mlpload -scrape: %v (output %s)", err, out.String())
	}
	if !strings.Contains(out.String(), "metric families OK") {
		t.Errorf("output missing scrape summary:\n%s", out.String())
	}
}
