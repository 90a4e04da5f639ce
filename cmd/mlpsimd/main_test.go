package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// startDaemon runs the daemon on a free port and returns its base URL
// plus a cancel that triggers graceful shutdown and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ready := make(chan string, 1)
	prev := onReady
	onReady = func(addr string) { ready <- addr }
	t.Cleanup(func() { onReady = prev })

	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, extraArgs...)
	go func() { errc <- run(ctx, args, &out) }()

	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-errc:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("daemon did not exit within 10s")
			}
		}
	case err := <-errc:
		t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

func TestDaemonEndToEnd(t *testing.T) {
	base, shutdown := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	// One real (small) simulation, then a cache hit.
	body := `{"workload":"database","insts":60000,"warm":30000}`
	var digests [2]string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr struct {
			Digest string `json:"digest"`
			Cached bool   `json:"cached"`
			Result struct {
				Epochs int64 `json:"epochs"`
			} `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		if rr.Result.Epochs <= 0 {
			t.Fatalf("run %d: epochs = %d", i, rr.Result.Epochs)
		}
		if want := i == 1; rr.Cached != want {
			t.Errorf("run %d: cached = %v, want %v", i, rr.Cached, want)
		}
		digests[i] = rr.Digest
	}
	if digests[0] != digests[1] {
		t.Errorf("digest changed between identical runs: %s vs %s", digests[0], digests[1])
	}

	// Metrics reflect the traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	metrics := sb.String()
	for _, want := range []string{
		"mlpsimd_cache_hits_total 1",
		"mlpsimd_sims_executed_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// After shutdown the port must be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

func TestDaemonGracefulShutdownUnderLoad(t *testing.T) {
	base, shutdown := startDaemon(t, "-workers", "2")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload":"tpcw","insts":50000,"warm":20000,"seed":%d}`, i+1)
			resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let requests land
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	wg.Wait()
}

// TestDaemonPprofFlag: the profiling endpoints exist only when -pprof
// is set.
func TestDaemonPprofFlag(t *testing.T) {
	base, shutdown := startDaemon(t)
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/cmdline returned %d, want 404", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	base, shutdown = startDaemon(t, "-pprof")
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/cmdline returned %d, want 200", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-log", "xml"}, &out); err == nil {
		t.Error("bad -log value should fail")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &out); err == nil {
		t.Error("bad -addr should fail")
	}
}

// TestDaemonTraceOut: -trace-out dumps the retained request traces as
// Chrome trace_event JSON at graceful shutdown, and the same view is
// live on /debug/obs/trace while serving.
func TestDaemonTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.json")
	base, shutdown := startDaemon(t, "-trace-out", path)

	body := `{"workload":"database","insts":60000,"warm":30000}`
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}

	// The live endpoint carries the run's request stages and engine
	// detail once the finished trace enters the slow ring, which happens
	// just after the response is written: poll.
	names := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); !names["render"] && time.Now().Before(deadline); {
		resp, err = http.Get(base + "/debug/obs/trace")
		if err != nil {
			t.Fatal(err)
		}
		var live struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, ev := range live.TraceEvents {
			names[ev.Name] = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{"parse", "simulate", "batch", "fold", "render"} {
		if !names[want] {
			t.Errorf("/debug/obs/trace missing %q span (have %v)", want, names)
		}
	}

	// And /debug/obs/runs shows the finished run in its totals.
	resp, err = http.Get(base + "/debug/obs/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs struct {
		Totals struct {
			FinishedRuns int64 `json:"finished_runs"`
		} `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if runs.Totals.FinishedRuns < 1 {
		t.Errorf("finished_runs = %d, want >= 1", runs.Totals.FinishedRuns)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var dumped struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &dumped); err != nil {
		t.Fatalf("trace file is not valid trace_event JSON: %v", err)
	}
	if len(dumped.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}
