package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storemlp/internal/epoch"
	"storemlp/internal/obs"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// countingRunner returns a Runner that counts executions, sleeps for
// delay (observing ctx), and fabricates deterministic stats.
func countingRunner(execs *atomic.Int64, delay time.Duration) Runner {
	return func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
		execs.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &epoch.Stats{Insts: spec.Insts, Epochs: spec.Insts / 100, StoreMisses: 7}, nil
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeRun(t *testing.T, raw []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return rr
}

// TestCoalescingExactlyOneExecution is the serving-layer keystone: N
// concurrent identical requests must cost exactly one engine execution
// and produce N identical responses. Run under -race via make check.
func TestCoalescingExactlyOneExecution(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 4,
		Runner:  countingRunner(&execs, 100*time.Millisecond),
	})

	const n = 32
	req := RunRequest{Workload: "database", Insts: 1000, Warm: 100}
	responses := make([]RunResponse, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/run", req)
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				responses[i] = decodeRun(t, body)
			}
		}(i)
	}
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("engine executed %d times for %d identical concurrent requests, want exactly 1", got, n)
	}
	leaders, coalesced, cached := 0, 0, 0
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		r := responses[i]
		if r.Digest != responses[0].Digest {
			t.Errorf("request %d: digest %s differs from %s", i, r.Digest, responses[0].Digest)
		}
		if r.Result != responses[0].Result {
			t.Errorf("request %d: result %+v differs from %+v", i, r.Result, responses[0].Result)
		}
		switch {
		case r.Coalesced:
			coalesced++
		case r.Cached:
			cached++
		default:
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d (coalesced %d, cached %d), want exactly 1", leaders, coalesced, cached)
	}
	if coalesced+cached != n-1 {
		t.Errorf("coalesced %d + cached %d != %d", coalesced, cached, n-1)
	}
}

// TestOneExecutionPerDigest: while results are retained, a digest
// executes once however its concurrent identical requests interleave.
// A request that misses a finished result must find the run, running
// or ready, rather than execute it a second time.
func TestOneExecutionPerDigest(t *testing.T) {
	var execs atomic.Int64
	s := New(Config{Workers: 8, SlowRequests: -1, Runner: countingRunner(&execs, 0), Logger: quietLogger()})
	defer s.Close()

	const digests, copies = 1000, 8
	var wg sync.WaitGroup
	errs := make(chan error, digests*copies)
	for i := 0; i < digests; i++ {
		req := RunRequest{Workload: "database", Insts: int64(1000 + i), Warm: 100}
		for j := 0; j < copies; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.servePoint(context.Background(), req); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := execs.Load(); got != digests {
		t.Errorf("%d digests x %d concurrent requests executed %d times, want %d", digests, copies, got, digests)
	}
}

func TestCacheHitSecondRequest(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})

	req := RunRequest{Workload: "tpcw", Insts: 1000, Warm: 0}
	_, body := postJSON(t, ts.URL+"/v1/run", req)
	first := decodeRun(t, body)
	if first.Cached || first.Coalesced {
		t.Fatalf("first request should execute: %+v", first)
	}
	_, body = postJSON(t, ts.URL+"/v1/run", req)
	second := decodeRun(t, body)
	if !second.Cached {
		t.Fatalf("second identical request should be cached: %+v", second)
	}
	if execs.Load() != 1 {
		t.Errorf("executions = %d, want 1", execs.Load())
	}

	// A single changed knob must miss the cache.
	sq := 64
	req.Config = &ConfigPatch{StoreQueue: &sq}
	_, body = postJSON(t, ts.URL+"/v1/run", req)
	third := decodeRun(t, body)
	if third.Cached || third.Digest == second.Digest {
		t.Fatalf("changed config must not share digest/cache: %+v", third)
	}
	if execs.Load() != 2 {
		t.Errorf("executions = %d, want 2", execs.Load())
	}
}

func TestNoCacheAlwaysExecutes(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})
	req := RunRequest{Workload: "specjbb", Insts: 1000, NoCache: true}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		rr := decodeRun(t, body)
		if rr.Cached || rr.Coalesced {
			t.Fatalf("nocache response marked cached/coalesced: %+v", rr)
		}
	}
	if execs.Load() != 3 {
		t.Errorf("executions = %d, want 3", execs.Load())
	}
}

// TestDuplicateRunsDedupe: a grid is concurrent /v1/run requests. Twelve
// of them over three distinct configurations, on two workers, execute
// each configuration once; every other request reports that it was
// served from the table (cached) or joined a running execution
// (coalesced), with the digest of the run it got.
func TestDuplicateRunsDedupe(t *testing.T) {
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 2, Runner: countingRunner(&execs, 20*time.Millisecond)})

	const n = 12
	responses := make([]RunResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sb := 8 << (i % 3)
			resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
				Workload: "database", Insts: 1000,
				Config: &ConfigPatch{StoreBuffer: &sb},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			responses[i] = decodeRun(t, body)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := execs.Load(); got != 3 {
		t.Errorf("executions = %d, want 3 (9 duplicates coalesced/cached)", got)
	}
	shared := 0
	digests := map[string]bool{}
	for i, r := range responses {
		if r.Cached && r.Coalesced {
			t.Errorf("request %d: both cached and coalesced", i)
		}
		if r.Cached || r.Coalesced {
			shared++
		}
		digests[r.Digest] = true
		if r.Digest != responses[i%3].Digest {
			t.Errorf("request %d: digest %s, want its configuration's %s", i, r.Digest, responses[i%3].Digest)
		}
	}
	if shared != n-3 {
		t.Errorf("cached + coalesced = %d, want %d", shared, n-3)
	}
	if len(digests) != 3 {
		t.Errorf("distinct digests = %d, want 3", len(digests))
	}
	if hits, coal := s.mCacheHits.Value(), s.mCoalesced.Value(); hits+coal != n-3 {
		t.Errorf("metrics: %d hits + %d coalesced, want %d", hits, coal, n-3)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	cases := []struct {
		name string
		url  string
		body interface{}
	}{
		{"unknown workload", "/v1/run", RunRequest{Workload: "nope", Insts: 1000}},
		{"missing workload", "/v1/run", RunRequest{Insts: 1000}},
		{"bad model", "/v1/run", RunRequest{Workload: "tpcw", Config: &ConfigPatch{Model: strptr("zz")}}},
		{"bad prefetch", "/v1/run", RunRequest{Workload: "tpcw", Config: &ConfigPatch{StorePrefetch: intptr(9)}}},
		{"bad hws", "/v1/run", RunRequest{Workload: "tpcw", Config: &ConfigPatch{HWS: intptr(7)}}},
		{"invalid config", "/v1/run", RunRequest{Workload: "tpcw", Config: &ConfigPatch{ROB: intptr(-1)}}},
		{"over budget", "/v1/run", RunRequest{Workload: "tpcw", Insts: 1 << 60}},
		// insts+warm wraps negative in int64: the cap must not be
		// checked through the sum.
		{"insts+warm overflow", "/v1/run", RunRequest{Workload: "tpcw", Insts: 1 << 62, Warm: 1 << 62}},
		{"negative warm", "/v1/run", RunRequest{Workload: "tpcw", Insts: 1000, Warm: -1}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q", c.name, body)
		}
	}
}

// TestBodyLimit: a request body holds one point, so the bound is one
// point's budget. A point setting every knob decodes compact and
// indented, and so does one padded with whitespace to exactly
// maxBodyBytes; one byte more, or an oversized field, is cut off with
// 413 and nothing runs for it.
func TestBodyLimit(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})
	post := func(body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	point := RunRequest{
		Workload: "database", Seed: 1, Insts: 1000, Warm: 1000, Parallel: 1,
		TimeoutMS: 60_000, DisableTraffic: true, SharedCore: true,
		Config: &ConfigPatch{
			Model: strptr("pc"), StorePrefetch: intptr(1), StoreBuffer: intptr(16),
			StoreQueue: intptr(32), ROB: intptr(64), CoalesceBytes: intptr(8),
			SLE: boolptr(false), TM: boolptr(false), PrefetchPastSerializing: boolptr(false),
			HWS: intptr(-1), SMACEntries: intptr(0), Nodes: intptr(2),
			MissPenalty: intptr(500), PerfectStores: boolptr(false),
		},
	}
	compact, err := json.Marshal(point)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(point, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented} {
		if status, out := post(body); status != http.StatusOK {
			t.Errorf("every-knob point of %d bytes: status %d (%s), want 200", len(body), status, out)
		}
	}
	padded := func(n int) []byte {
		return append(append([]byte{}, indented...), bytes.Repeat([]byte{' '}, n-len(indented))...)
	}
	if status, out := post(padded(maxBodyBytes)); status != http.StatusOK {
		t.Errorf("point padded to %d bytes: status %d (%s), want 200", maxBodyBytes, status, out)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("three posts of one point executed %d times, want 1", n)
	}
	if status, out := post(padded(maxBodyBytes + 1)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("point padded to %d bytes: status %d (%.80s), want 413", maxBodyBytes+1, status, out)
	}
	huge, err := json.Marshal(RunRequest{Workload: strings.Repeat("x", maxBodyBytes)})
	if err != nil {
		t.Fatal(err)
	}
	if status, out := post(huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize workload name: status %d (%.80s), want 413", status, out)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("oversize bodies executed: %d runs, want 1", n)
	}
}

func strptr(s string) *string { return &s }
func boolptr(b bool) *bool    { return &b }
func intptr(i int) *int       { return &i }

func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: countingRunner(new(atomic.Int64), 5*time.Second)})
	req := RunRequest{Workload: "specweb", Insts: 1000, NoCache: true, TimeoutMS: 30}
	resp, _ := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestAbandonedCallCancelsSimulation: when every waiter disconnects,
// the in-flight simulation's context must be cancelled.
func TestAbandonedCallCancelsSimulation(t *testing.T) {
	sawCancel := make(chan struct{})
	runner := func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
		<-ctx.Done()
		close(sawCancel)
		return nil, ctx.Err()
	}
	s := New(Config{Runner: runner, Logger: quietLogger()})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.servePoint(ctx, RunRequest{Workload: "database", Insts: 1000})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call enter the flight group
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("abandoned request should return its context error")
	}
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("simulation context was never cancelled after all waiters left")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, Runner: countingRunner(new(atomic.Int64), 0)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb healthBody
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || hb.Workers != 3 {
		t.Errorf("health = %+v", hb)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})
	req := RunRequest{Workload: "database", Insts: 1000}
	postJSON(t, ts.URL+"/v1/run", req)
	postJSON(t, ts.URL+"/v1/run", req) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`mlpsimd_requests_total{class="2xx",endpoint="run"} 2`,
		"mlpsimd_cache_hits_total 1",
		"mlpsimd_cache_misses_total 1",
		"mlpsimd_sims_executed_total 1",
		"mlpsimd_coalesced_requests_total 0",
		"mlpsimd_cache_entries 1",
		"mlpsimd_sims_inflight 0",
		"mlpsimd_queue_depth 0",
		"# TYPE mlpsimd_request_seconds histogram",
		`mlpsimd_request_seconds_bucket{endpoint="run",le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, text)
		}
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	var inflight, peak atomic.Int64
	runner := func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		inflight.Add(-1)
		return &epoch.Stats{Insts: spec.Insts}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: runner})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds: no coalescing, all must execute.
			postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "tpcw", Insts: 1000, Seed: int64(i + 1)})
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent simulations = %d, want <= 2", p)
	}
}

func TestRealEngineSmallRun(t *testing.T) {
	// One end-to-end run through the real epoch engine, small enough for
	// test time but long enough to produce epochs.
	s, ts := newTestServer(t, Config{})
	req := RunRequest{Workload: "database", Insts: 100_000, Warm: 50_000}
	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Result.Insts != 100_000 {
		t.Errorf("insts = %d", rr.Result.Insts)
	}
	if rr.Result.EPI <= 0 || rr.Result.Epochs <= 0 {
		t.Errorf("EPI=%v epochs=%d, want positive", rr.Result.EPI, rr.Result.Epochs)
	}
	if math.IsNaN(rr.Result.MLP) {
		t.Error("MLP is NaN")
	}
	if !strings.Contains(rr.Result.ConfigName, "PC Sp1") {
		t.Errorf("config name %q", rr.Result.ConfigName)
	}

	// The default runner (sim.RunContext) picks the request trace out
	// of the context: the trace holds the engine's detail spans under
	// the one simulate span, and the runs view counts the finished run.
	id := resp.Header.Get("X-Trace-Id")
	waitFor(t, "trace in the slow ring", func() bool { return s.slow.Get(id) != nil })
	stages := map[obs.Stage]int{}
	sim := obs.NoSpan
	for i, sp := range s.slow.Get(id).Snapshot() {
		stages[sp.Stage]++
		if sp.Stage == obs.StageSimulate {
			sim = obs.SpanID(i)
		} else if sp.Stage.Detail() && sp.Parent != sim {
			t.Errorf("%s span parent %d, want the simulate span %d", sp.Stage, sp.Parent, sim)
		}
	}
	if stages[obs.StageSimulate] != 1 || stages[obs.StageFold] != 1 || stages[obs.StageBatch] == 0 {
		t.Errorf("real run stages %v, want one simulate, one fold and its batches", stages)
	}
	var runs struct {
		Totals obs.Totals `json:"totals"`
	}
	getJSONTo(t, ts.URL+"/debug/obs/runs", &runs)
	if tot := runs.Totals; tot.FinishedRuns < 1 || tot.Insts < 150_000 {
		t.Errorf("runs totals %+v, want >= 1 finished run of 150000 insts", tot)
	}
}

// TestRunsViewLive drives /debug/obs/runs while real engine runs are
// in flight: a /v1/run shows as one entry labelled with its workload
// and configuration that renders the documented JSON keys, and two
// concurrent requests show as two entries. With span tracing off there
// is no trace to carry progress, so the view stays empty.
func TestRunsViewLive(t *testing.T) {
	type runsDoc struct {
		Active []map[string]any `json:"active"`
		Totals map[string]any   `json:"totals"`
	}
	entryKeys := []string{"label", "total_insts", "insts", "measured_insts", "epochs",
		"load_inst_misses", "store_misses", "mlp", "elapsed_ns", "insts_per_sec", "done"}
	totalsKeys := []string{"active_runs", "finished_runs", "insts", "epochs"}
	hasKeys := func(what string, m map[string]any, keys []string) {
		t.Helper()
		if len(m) != len(keys) {
			t.Errorf("%s has %d keys, want %v: %v", what, len(m), keys, m)
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%s missing key %q: %v", what, k, m)
			}
		}
	}
	// post sends body in the background and returns a cancel that
	// disconnects the client, which abandons the uncached runs.
	post := func(url string, body any) (cancel func()) {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		ctx, stop := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		return func() { stop(); <-done }
	}
	long := RunRequest{Workload: "database", Insts: 50_000_000, Warm: 1_000, NoCache: true}

	// Two workers, so two requests run at once at any GOMAXPROCS.
	_, ts := newTestServer(t, Config{Workers: 2})
	cancel := post(ts.URL+"/v1/run", long)
	var doc runsDoc
	waitFor(t, "a live /v1/run entry", func() bool {
		doc = runsDoc{}
		getJSONTo(t, ts.URL+"/debug/obs/runs", &doc)
		return len(doc.Active) == 1 && doc.Active[0]["insts"].(float64) > 0
	})
	cancel()
	waitFor(t, "the cancelled run to leave the view", func() bool {
		doc := runsDoc{}
		getJSONTo(t, ts.URL+"/debug/obs/runs", &doc)
		return len(doc.Active) == 0
	})
	hasKeys("active entry", doc.Active[0], entryKeys)
	hasKeys("totals", doc.Totals, totalsKeys)
	if want := "database " + uarch.Default().Name(); doc.Active[0]["label"] != want {
		t.Errorf("run label %q, want %q", doc.Active[0]["label"], want)
	}
	if doc.Active[0]["total_insts"].(float64) != float64(long.Insts+long.Warm) {
		t.Errorf("planned insts %v, want %d", doc.Active[0]["total_insts"], long.Insts+long.Warm)
	}

	second := long
	second.Seed = 2
	cancelFirst, cancelSecond := post(ts.URL+"/v1/run", long), post(ts.URL+"/v1/run", second)
	waitFor(t, "two live /v1/run entries", func() bool {
		doc = runsDoc{}
		getJSONTo(t, ts.URL+"/debug/obs/runs", &doc)
		return len(doc.Active) == 2
	})
	for i, e := range doc.Active {
		if e["total_insts"].(float64) != float64(long.Insts+long.Warm) {
			t.Errorf("entry %d plans %v insts, want one run's %d", i, e["total_insts"], long.Insts+long.Warm)
		}
	}
	if doc.Totals["active_runs"].(float64) != 2 {
		t.Errorf("totals %v, want 2 active runs", doc.Totals)
	}
	cancelFirst()
	cancelSecond()

	_, off := newTestServer(t, Config{SlowRequests: -1})
	resp, body := postJSON(t, off.URL+"/v1/run", RunRequest{Workload: "tpcw", Insts: 10_000, Warm: 1_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced run: status %d: %s", resp.StatusCode, body)
	}
	var empty struct {
		Active []obs.Snapshot `json:"active"`
		Totals obs.Totals     `json:"totals"`
	}
	getJSONTo(t, off.URL+"/debug/obs/runs", &empty)
	if len(empty.Active) != 0 || empty.Totals != (obs.Totals{}) {
		t.Errorf("runs view with tracing off = %+v, want empty", empty)
	}
}

// TestLRUCacheEviction: the result table retains at most max ready
// entries, evicting the least recently used, and records evictions and
// its size as they happen.
func TestLRUCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	evicted, size := reg.Counter("evicted", ""), reg.Gauge("size", "")
	tb := newResultTable(context.Background(), 2, evicted, size)
	put := func(key string, n int64) {
		t.Helper()
		e, st := tb.claim(key)
		if st != entryClaimed {
			t.Fatalf("claim(%s) = %d, want a new entry", key, st)
		}
		tb.finish(e, &RunResult{Insts: n}, nil)
	}
	ready := func(key string) bool {
		tb.mu.Lock()
		defer tb.mu.Unlock()
		e, ok := tb.entries[key]
		return ok && e.elem != nil
	}
	put("a", 1)
	put("b", 2)
	if e, st := tb.claim("a"); st != entryReady || e.res.Insts != 1 { // refresh a; b becomes LRU
		t.Fatalf("a: state %d", st)
	}
	put("c", 3) // evicts b
	if ready("b") {
		t.Error("b should have been evicted")
	}
	if !ready("a") {
		t.Error("a should survive (recently used)")
	}
	if !ready("c") {
		t.Error("c missing")
	}
	if size.Value() != 2 || evicted.Value() != 1 {
		t.Errorf("size=%d evicted=%d", size.Value(), evicted.Value())
	}

	// A failed run is not retained, so the next claim leads again.
	e, _ := tb.claim("d")
	tb.finish(e, nil, errors.New("boom"))
	if _, err := tb.wait(context.Background(), e); err == nil {
		t.Error("wait on a failed run returned no error")
	}
	if _, st := tb.claim("d"); st != entryClaimed {
		t.Errorf("claim after a failed run = %d, want a new entry", st)
	}
	if size.Value() != 2 || evicted.Value() != 1 {
		t.Errorf("after a failure: size=%d evicted=%d", size.Value(), evicted.Value())
	}
}

// scrapeFamilies fetches /metrics and validates the body against the
// Prometheus text exposition grammar (names, HELP/TYPE pairing,
// histogram bucket structure, counter sanity).
func scrapeFamilies(t *testing.T, url string) []obs.Family {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	fams, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics violates exposition grammar: %v", err)
	}
	return fams
}

// TestMetricsExpositionGrammar is the scrape-parse gate: the full
// /metrics output must survive a strict exposition-format parse before
// and after traffic, and every counter must be monotone between the
// two scrapes.
func TestMetricsExpositionGrammar(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})

	first := scrapeFamilies(t, ts.URL)
	req := RunRequest{Workload: "database", Insts: 1000}
	for i := 0; i < 2; i++ { // miss then hit
		resp, body := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	second := scrapeFamilies(t, ts.URL)
	if err := obs.CountersMonotone(first, second); err != nil {
		t.Errorf("counters regressed between scrapes: %v", err)
	}

	names := make(map[string]bool, len(second))
	for _, f := range second {
		names[f.Name] = true
	}
	for _, want := range []string{
		"mlpsimd_requests_total", "mlpsimd_request_seconds",
		"mlpsimd_cache_hit_ratio", "mlpsimd_pool_saturation",
		"mlpsimd_engine_epochs_total", "mlpsimd_engine_insts_per_second",
		"mlpsimd_engine_epochs_per_second",
		"mlpsimd_build_info", "mlpsimd_config_info",
	} {
		if !names[want] {
			t.Errorf("scrape missing family %s", want)
		}
	}
}

// syncBuffer makes a bytes.Buffer safe to share between the server's
// logging goroutine and the test.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond (the completion log line is written after the
// response reaches the client, so the test must wait for it).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestLogFields asserts the satellite contract on the request
// logger: one completion line per request carrying request ID,
// duration, cache state and outcome.
func TestRequestLogFields(t *testing.T) {
	var buf syncBuffer
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{
		Runner: countingRunner(&execs, 0),
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})

	req := RunRequest{Workload: "database", Insts: 1000}
	for i := 0; i < 2; i++ { // miss then hit
		if resp, body := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	requestLines := func() []string {
		var out []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "msg=request ") {
				out = append(out, line)
			}
		}
		return out
	}
	waitFor(t, "two completion log lines", func() bool { return len(requestLines()) >= 2 })

	lines := requestLines()
	for i, line := range lines[:2] {
		for _, field := range []string{"req_id=", "dur=", "status=200", "outcome=ok", "path=/v1/run"} {
			if !strings.Contains(line, field) {
				t.Errorf("log line %d missing %s: %s", i, field, line)
			}
		}
	}
	if !strings.Contains(lines[0], "cache=miss") {
		t.Errorf("first request should log cache=miss: %s", lines[0])
	}
	if !strings.Contains(lines[1], "cache=hit") {
		t.Errorf("second request should log cache=hit: %s", lines[1])
	}
}

// TestDebugObservabilityEndpoints exercises the /debug/obs/* views:
// the Chrome trace export, the live-run board and the JSON mirror of
// the metrics registry.
func TestDebugObservabilityEndpoints(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 1000}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}

	// The render span is recorded after the response is written; poll.
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	waitFor(t, "a render span in the trace", func() bool {
		tr.TraceEvents = nil
		getJSONTo(t, ts.URL+"/debug/obs/trace", &tr)
		for _, ev := range tr.TraceEvents {
			if ev.Name == "render" && ev.Ph == "X" {
				return true
			}
		}
		return false
	})

	var runs struct {
		Active []obs.Snapshot `json:"active"`
		Totals obs.Totals     `json:"totals"`
	}
	getJSONTo(t, ts.URL+"/debug/obs/runs", &runs)
	if runs.Active == nil {
		t.Error("/debug/obs/runs active should render as [], not null")
	}

	var vars map[string]interface{}
	getJSONTo(t, ts.URL+"/debug/obs/vars", &vars)
	if got, ok := vars["mlpsimd_sims_executed_total"].(float64); !ok || got != 1 {
		t.Errorf("vars executed_total = %v, want 1", vars["mlpsimd_sims_executed_total"])
	}
}

// TestTracerDisabled: TraceEvents < 0 turns engine-detail spans off
// while the request stages keep recording, and /debug/obs/trace still
// serves the retained trace.
func TestTracerDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceEvents: -1})
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 20_000, Warm: 10_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	waitFor(t, "trace in the slow ring", func() bool { return s.slow.Get(id) != nil })
	rt := s.slow.Get(id)
	for _, sp := range rt.Snapshot() {
		if sp.Stage.Detail() {
			t.Errorf("TraceEvents < 0 still recorded a %s span", sp.Stage)
		}
	}
	if rt.Dropped() != 0 {
		t.Errorf("Dropped = %d: a disabled detail cap must not count the engine as dropping", rt.Dropped())
	}

	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	getJSONTo(t, ts.URL+"/debug/obs/trace", &tr)
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		names[ev.Name] = true
	}
	if !names["simulate"] || names["batch"] || names["fold"] {
		t.Errorf("/debug/obs/trace names %v, want simulate without batch/fold", names)
	}
}

// getJSONTo fetches url and decodes its JSON body into v.
func getJSONTo(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestEndpointClassification(t *testing.T) {
	if classOf(200) != "2xx" || classOf(404) != "4xx" || classOf(500) != "5xx" {
		t.Error("classOf broken")
	}
	for path, want := range map[string]string{
		"/v1/run": "run", "/healthz": "healthz", "/metrics": "metrics",
		"/debug/obs/trace": "debug", "/debug/obs/runs": "debug", "/debug/obs/vars": "debug",
		"/v1/sweep": "other", "/": "other",
	} {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%s) = %s", path, got)
		}
	}

	// A 404 counts under "other": it leaves the run series alone and
	// gets no trace.
	s, ts := newTestServer(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	for _, path := range []string{"/v1/sweep", "/"} {
		resp, _ := postJSON(t, ts.URL+path, RunRequest{Workload: "database", Insts: 1000})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
		if id := resp.Header.Get("X-Trace-Id"); id != "" {
			t.Errorf("POST %s got trace %s", path, id)
		}
	}
	if n := s.mLatency["run"].Count(); n != 0 {
		t.Errorf("run latency histogram counted %d requests, want 0", n)
	}
	if n := s.mLatency["other"].Count(); n != 2 {
		t.Errorf("other latency histogram counted %d requests, want 2", n)
	}
	if n := s.mReqs["other"]["4xx"].Value(); n != 2 {
		t.Errorf("other 4xx requests = %d, want 2", n)
	}
	if n := s.slow.Len(); n != 0 {
		t.Errorf("slow ring holds %d traces of unknown paths, want 0", n)
	}
}

func TestServerCloseAbortsInflight(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := New(Config{Runner: runner, Logger: quietLogger()})
	errc := make(chan error, 1)
	go func() {
		_, err := s.servePoint(context.Background(), RunRequest{Workload: "database", Insts: 1000})
		errc <- err
	}()
	<-started
	s.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("closed server should abort the simulation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("simulation did not abort on Close")
	}
}

func ExampleServer() {
	runner := func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
		return &epoch.Stats{Insts: spec.Insts, Epochs: 42}, nil
	}
	s := New(Config{Runner: runner, Logger: quietLogger()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.NewReader(`{"workload":"database","insts":1000,"warm":100}`)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", body)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var rr RunResponse
	_ = json.NewDecoder(resp.Body).Decode(&rr)
	fmt.Println(resp.StatusCode, rr.Result.Epochs, rr.Cached)
	// Output: 200 42 false
}

// TestParallelFieldRejected: intra-run fan-out is gone, so a parallel
// value other than 0 or 1 is a 400 that says so, while 0 and 1 (what
// older clients send) still run serially under one digest.
func TestParallelFieldRejected(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})

	for _, par := range []int{2, 4, 64, -2} {
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 100_000, Parallel: par})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("parallel %d: status %d (%s), want 400", par, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "intra-run fan-out was removed") {
			t.Errorf("parallel %d: error %s does not say fan-out was removed", par, body)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("rejected requests executed %d times", n)
	}

	var digests []string
	for _, par := range []int{0, 1} {
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 100_000, Parallel: par})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallel %d: status %d (%s), want 200", par, resp.StatusCode, body)
		}
		digests = append(digests, decodeRun(t, body).Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("parallel 0 and 1 digest differently: %s vs %s", digests[0], digests[1])
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("parallel 0 then 1 executed %d times, want 1 (second is a cache hit)", n)
	}
}

// TestUnknownFieldRejected: a request body with a field the request
// type does not define, at the top level or inside the config patch, is
// a 400 naming the field, and nothing runs. A grid of points in one body
// is such a body.
func TestUnknownFieldRejected(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})

	for _, c := range []struct{ path, body, field string }{
		{"/v1/run", `{"workload":"database","insts":1000,"isnts":5}`, "isnts"},
		{"/v1/run", `{"workload":"database","insts":1000,"config":{"modle":"wc"}}`, "modle"},
		{"/v1/run", `{"points":[{"workload":"tpcw","insts":1000}]}`, "points"},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.field) {
			t.Errorf("%s %s: status %d (%s), want 400 naming %q", c.path, c.body, resp.StatusCode, body, c.field)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("rejected requests executed %d times", n)
	}
}

// TestTrailingDataRejected: a body is one JSON value; anything after
// it but whitespace is a 400, and nothing runs.
func TestTrailingDataRejected(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})

	for _, body := range []string{
		`{"workload":"database","insts":1000} {"bogus": garbage`,
		`{"workload":"database","insts":1000}{}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("rejected requests executed %d times", n)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{\"workload\":\"database\",\"insts\":1000}\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a body ending in a newline: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestDefaultParallelIgnored: the deprecated DefaultParallel field is
// accepted and has no effect — a daemon configured with it serves the
// same digests as one without.
func TestDefaultParallelIgnored(t *testing.T) {
	req := RunRequest{Workload: "tpcw", Insts: 100_000}
	var digests []string
	for _, def := range []int{0, 4} {
		_, ts := newTestServer(t, Config{
			Runner:          countingRunner(new(atomic.Int64), 0),
			DefaultParallel: def,
		})
		resp, body := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DefaultParallel %d: status %d (%s), want 200", def, resp.StatusCode, body)
		}
		digests = append(digests, decodeRun(t, body).Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("DefaultParallel changed the digest: %s vs %s", digests[0], digests[1])
	}
}

// TestRunLeavesNoGoroutines: every way a /v1/run request can end — a
// hit, a miss, coalesced followers, nocache, a client that disconnects,
// a per-request timeout and a 400 — gives back the goroutines it
// started once idle client connections close. Leaked request, leader or
// waiter goroutines keep the count above its baseline.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const slowInsts = 999 // the runner blocks on these until cancelled
	var execs atomic.Int64
	fast := countingRunner(&execs, 20*time.Millisecond)
	runner := func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error) {
		if spec.Insts == slowInsts {
			execs.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return fast(ctx, spec)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Runner: runner})
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	run := func(req RunRequest, want int) {
		t.Helper()
		if resp, body := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != want {
			t.Errorf("%+v: status %d (%s), want %d", req, resp.StatusCode, body, want)
		}
	}
	hot := RunRequest{Workload: "database", Insts: 1000}
	run(hot, http.StatusOK) // miss
	run(hot, http.StatusOK) // hit
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // one leader, three coalesced followers
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(RunRequest{Workload: "tpcw", Insts: 1000}, http.StatusOK)
		}()
	}
	wg.Wait()
	run(RunRequest{Workload: "specjbb", Insts: 1000, NoCache: true}, http.StatusOK)
	run(RunRequest{Workload: "specweb", Insts: slowInsts, TimeoutMS: 20}, http.StatusGatewayTimeout)
	run(RunRequest{Workload: "nope", Insts: 1000}, http.StatusBadRequest)

	// A client that disconnects while its run executes.
	buf, err := json.Marshal(RunRequest{Workload: "specweb", Seed: 2, Insts: slowInsts})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "the disconnecting client's run to start", func() bool { return execs.Load() == 5 })
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled client request succeeded")
	}
	waitFor(t, "the abandoned run to end", func() bool { return s.mInflight.Value() == 0 })

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var stacks strings.Builder
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines after the requests, baseline %d:\n%s", runtime.NumGoroutine(), baseline, stacks.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := execs.Load(); n != 5 {
		t.Errorf("executions = %d, want 5 (miss, coalesced leader, nocache, timeout, disconnect)", n)
	}
}
