package server

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"storemlp/internal/obs"
)

// getSlowListing fetches and decodes /debug/obs/slow.
func getSlowListing(t *testing.T, base string) []struct {
	TraceID string             `json:"trace_id"`
	Label   string             `json:"label"`
	Status  int                `json:"status"`
	DurMS   float64            `json:"dur_ms"`
	Spans   int                `json:"spans"`
	Stages  map[string]float64 `json:"stages_ms"`
} {
	t.Helper()
	resp, err := http.Get(base + "/debug/obs/slow")
	if err != nil {
		t.Fatalf("GET /debug/obs/slow: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/obs/slow: status %d", resp.StatusCode)
	}
	var body struct {
		Slowest []struct {
			TraceID string             `json:"trace_id"`
			Label   string             `json:"label"`
			Status  int                `json:"status"`
			DurMS   float64            `json:"dur_ms"`
			Spans   int                `json:"spans"`
			Stages  map[string]float64 `json:"stages_ms"`
		} `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding slow listing: %v", err)
	}
	return body.Slowest
}

// checkWellNested asserts the span-tree invariants on one trace: slot 0
// is the only root, every parent precedes its child in the arena,
// children start no earlier than their parent, and a closed child ends
// no later than its closed parent.
func checkWellNested(t *testing.T, spans []obs.ReqSpan, id string) {
	t.Helper()
	for i, sp := range spans {
		if i == 0 {
			if sp.Parent != obs.NoSpan || sp.Stage != obs.StageRequest {
				t.Errorf("trace %s: slot 0 = %+v, want StageRequest root", id, sp)
			}
			continue
		}
		if sp.Parent < 0 || int(sp.Parent) >= i {
			t.Errorf("trace %s: span %d (%s) has parent %d, want an earlier slot", id, i, sp.Stage, sp.Parent)
			continue
		}
		par := spans[sp.Parent]
		if sp.Start < par.Start {
			t.Errorf("trace %s: span %d (%s) starts %dns before its parent (%s)",
				id, i, sp.Stage, par.Start-sp.Start, par.Stage)
		}
		if sp.End != 0 && sp.End < sp.Start {
			t.Errorf("trace %s: span %d (%s) ends before it starts", id, i, sp.Stage)
		}
		if sp.End != 0 && par.End != 0 && sp.End > par.End {
			t.Errorf("trace %s: span %d (%s) ends %dns after its parent (%s)",
				id, i, sp.Stage, sp.End-par.End, par.Stage)
		}
	}
}

// TestSpanWaterfallColdRun: a cold serial request against the real
// engine must yield a span waterfall covering every pipeline stage in
// order (parse → digest → cache_probe → pool_wait → simulate → render),
// retrievable via /debug/obs/slow and /debug/obs/req, stitched to the
// completion log line by trace_id, with the root span accounting for
// (nearly) the whole logged duration.
func TestSpanWaterfallColdRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine run")
	}
	var buf syncBuffer
	s, ts := newTestServer(t, Config{
		Workers: 4,
		Logger:  slog.New(slog.NewTextHandler(&buf, nil)),
	})

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Workload: "tpcw", Insts: 60_000, Warm: 20_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Errorf("trace ID %q != request ID %q (one ID names both)", traceID, got)
	}

	// Finish/ring-add happen after the response is written; poll.
	waitFor(t, "trace in the slow ring", func() bool { return s.slow.Get(traceID) != nil })
	rt := s.slow.Get(traceID)
	spans := rt.Snapshot()
	checkWellNested(t, spans, traceID)

	// Every stage of the cold waterfall appears once, directly under
	// the root, in pipeline order; no segment or merge stage exists.
	waterfall := []obs.Stage{
		obs.StageParse, obs.StageDigest, obs.StageCacheProbe, obs.StagePoolWait,
		obs.StageSimulate, obs.StageRender,
	}
	byStage := map[obs.Stage]int{}
	var order []obs.Stage
	for _, sp := range spans {
		byStage[sp.Stage]++
		if name := sp.Stage.String(); name == "segment" || name == "merge" || name == "unknown" {
			t.Errorf("span with stage %q in a serial run", name)
		}
		if sp.Parent == 0 && !sp.Stage.Detail() {
			order = append(order, sp.Stage)
		}
	}
	for _, want := range waterfall {
		if byStage[want] != 1 {
			t.Errorf("stage %s count = %d, want 1 (stages: %v)", want, byStage[want], byStage)
		}
	}
	if !slices.Equal(order, waterfall) {
		t.Errorf("root stages in order %v, want %v", order, waterfall)
	}

	// The root's children must account for the request's wall time: the
	// union of their intervals covers >= 90% of the root span (the
	// uncovered sliver is middleware overhead around the handler).
	root := spans[0]
	var ivs [][2]int64
	for _, sp := range spans[1:] {
		if sp.Parent == 0 && sp.End != 0 {
			ivs = append(ivs, [2]int64{sp.Start, sp.End})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var covered, cursor int64
	cursor = root.Start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cursor {
			lo = cursor
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	rootDur := root.End - root.Start
	if rootDur <= 0 {
		t.Fatalf("root span not closed: %+v", root)
	}
	if frac := float64(covered) / float64(rootDur); frac < 0.90 {
		t.Errorf("stage spans cover %.1f%% of the request, want >= 90%% (spans: %+v)", frac*100, spans)
	}

	// The slow listing carries the same trace with per-stage totals …
	listing := getSlowListing(t, ts.URL)
	found := false
	for _, e := range listing {
		if e.TraceID == traceID {
			found = true
			if e.Label != "POST /v1/run" || e.Status != http.StatusOK {
				t.Errorf("slow entry = %q/%d, want POST /v1/run / 200", e.Label, e.Status)
			}
			if e.Stages["simulate"] <= 0 {
				t.Errorf("slow entry stage totals missing simulation time: %v", e.Stages)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in slow listing %+v", traceID, listing)
	}

	// … and /debug/obs/req serves its Chrome waterfall.
	chromeResp, err := http.Get(ts.URL + "/debug/obs/req?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Dur  float64          `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&chrome); err != nil {
		t.Fatalf("/debug/obs/req decode: %v", err)
	}
	if len(chrome.TraceEvents) != len(spans) {
		t.Errorf("chrome export has %d events, want %d", len(chrome.TraceEvents), len(spans))
	}

	// The completion log line carries the trace ID.
	waitFor(t, "completion log line", func() bool {
		return strings.Contains(buf.String(), "trace_id="+traceID)
	})

	// The per-stage histograms absorbed the tree: the simulate stage
	// has its observation.
	if c := s.mStage[obs.StageSimulate].Count(); c < 1 {
		t.Errorf("mlpsimd_stage_seconds{stage=simulate} count = %d, want >= 1", c)
	}
}

// TestSpanDetailCap: a real cold run whose instruction batches
// outnumber the TraceEvents detail cap keeps every request stage — each
// observed once in mlpsimd_stage_seconds — holds exactly the cap's
// worth of engine detail, and counts the excess in Dropped.
func TestSpanDetailCap(t *testing.T) {
	const detailCap = 8
	s, ts := newTestServer(t, Config{TraceEvents: detailCap})
	// 80k instructions = 20 batches of 4096, plus fold and measure_start.
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "tpcw", Insts: 60_000, Warm: 20_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Trace-Id")
	waitFor(t, "trace in the slow ring", func() bool { return s.slow.Get(id) != nil })
	rt := s.slow.Get(id)
	spans := rt.Snapshot()
	checkWellNested(t, spans, id)

	byStage := map[obs.Stage]int{}
	details := 0
	for _, sp := range spans {
		byStage[sp.Stage]++
		if sp.Stage.Detail() {
			details++
		}
	}
	for _, st := range []obs.Stage{
		obs.StageParse, obs.StageDigest, obs.StageCacheProbe, obs.StagePoolWait,
		obs.StageSimulate, obs.StageRender,
	} {
		if byStage[st] != 1 {
			t.Errorf("stage %s count = %d, want 1 (stages: %v)", st, byStage[st], byStage)
		}
		if c := s.mStage[st].Count(); c != 1 {
			t.Errorf("mlpsimd_stage_seconds{stage=%s} count = %d, want 1", st, c)
		}
	}
	if details != detailCap {
		t.Errorf("trace holds %d engine-detail spans, want the cap %d", details, detailCap)
	}
	if want := 20 + 2 - detailCap; rt.Dropped() < want {
		t.Errorf("Dropped = %d, want >= %d (20 batches + fold + measure_start past cap %d)", rt.Dropped(), want, detailCap)
	}
}

// TestSpanProbesZeroChurn pins the probe-noise contract: health checks,
// metric scrapes and debug fetches must not build span trees, must not
// enter the slow ring, and must not add a single series to the metrics
// registry.
func TestSpanProbesZeroChurn(t *testing.T) {
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})

	countSeries := func() int {
		var sb strings.Builder
		rec := &headerRecorder{sb: &sb}
		s.Metrics.JSONHandler().ServeHTTP(rec, nil)
		var vars map[string]json.RawMessage
		if err := json.Unmarshal([]byte(sb.String()), &vars); err != nil {
			t.Fatalf("vars decode: %v", err)
		}
		return len(vars)
	}

	before := countSeries()
	for i := 0; i < 10; i++ {
		for _, path := range []string{"/healthz", "/metrics", "/debug/obs/vars", "/debug/obs/slow", "/debug/obs/runs"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Header.Get("X-Trace-Id") != "" {
				t.Errorf("probe %s got a trace ID", path)
			}
			resp.Body.Close()
		}
	}
	if after := countSeries(); after != before {
		t.Errorf("probe traffic changed the registry: %d -> %d series", before, after)
	}
	if n := s.slow.Len(); n != 0 {
		t.Errorf("slow ring holds %d probe traces, want 0", n)
	}
	for _, st := range obs.Stages() {
		if h := s.mStage[st]; h != nil && h.Count() != 0 {
			t.Errorf("stage %s histogram observed %d probe samples", st, h.Count())
		}
	}
}

// headerRecorder is a minimal ResponseWriter for driving handlers
// without the HTTP stack.
type headerRecorder struct {
	sb *strings.Builder
	h  http.Header
}

func (r *headerRecorder) Header() http.Header {
	if r.h == nil {
		r.h = make(http.Header)
	}
	return r.h
}
func (r *headerRecorder) WriteHeader(int) {}
func (r *headerRecorder) Write(p []byte) (int, error) {
	return r.sb.WriteString(string(p))
}

// TestSpanTreeWellNested is the concurrency property test (run under
// -race and -cpu 1,2,4 by check.sh): a burst of concurrent /v1/run
// traffic — cache hits, coalesced followers, cold misses on two
// digests, nocache runs — must leave every retained span tree
// well-nested, and the follower/leader split must put coalesce_wait on
// follower traces only.
func TestSpanTreeWellNested(t *testing.T) {
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{
		Workers:      2,
		SlowRequests: 64,
		Runner:       countingRunner(&execs, 2_000_000), // 2ms per execution
	})

	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			switch c % 3 {
			case 0: // identical points: coalesce/hit traffic
				postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 1000})
			case 1: // distinct cold points
				postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "tpcw", Insts: 1000, Seed: int64(c + 1), NoCache: true})
			case 2: // a second digest's coalesce/hit traffic
				postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "specjbb", Insts: 1000})
			}
		}(c)
	}
	wg.Wait()

	waitFor(t, "all requests retained", func() bool { return s.slow.Len() == clients })
	for _, rt := range s.slow.Snapshot() {
		spans := rt.Snapshot()
		checkWellNested(t, spans, rt.ID())
		if rt.Dropped() != 0 {
			t.Errorf("trace %s dropped %d spans under a %d-span arena", rt.ID(), rt.Dropped(), reqSpanCap)
		}
		// Followers record the wait; leaders record the execution. A
		// request is one point, so no trace holds both.
		hasWait, hasPool := false, false
		for _, sp := range spans {
			switch sp.Stage {
			case obs.StageCoalesceWait:
				hasWait = true
			case obs.StagePoolWait:
				hasPool = true
			}
		}
		if hasWait && hasPool {
			t.Errorf("trace %s has both coalesce_wait and pool_wait", rt.ID())
		}
	}
}

// TestSpanTracingDisabled: SlowRequests < 0 removes the whole span
// surface — no X-Trace-Id, empty slow listing, 404 waterfalls — while
// requests keep serving.
func TestSpanTracingDisabled(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0), SlowRequests: -1})

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 1000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Errorf("disabled tracing still sets X-Trace-Id %q", got)
	}
	if listing := getSlowListing(t, ts.URL); len(listing) != 0 {
		t.Errorf("disabled tracing retained %d traces", len(listing))
	}
	reqResp, err := http.Get(ts.URL + "/debug/obs/req?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	reqResp.Body.Close()
	if reqResp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/obs/req on disabled ring: status %d, want 404", reqResp.StatusCode)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	getJSONTo(t, ts.URL+"/debug/obs/trace", &tr)
	if tr.TraceEvents == nil || len(tr.TraceEvents) != 0 {
		t.Errorf("/debug/obs/trace on disabled ring = %v, want an empty traceEvents list", tr.TraceEvents)
	}
}

// TestTraceViewListsRetained: /debug/obs/trace is one Chrome document
// holding every trace the slow ring retains, one named process each.
func TestTraceViewListsRetained(t *testing.T) {
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{Runner: countingRunner(&execs, 0)})
	const runs = 3
	for i := 0; i < runs; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "database", Insts: 1000, Seed: int64(i + 1)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d: %s", resp.StatusCode, body)
		}
	}
	waitFor(t, "all runs retained", func() bool { return s.slow.Len() == runs })

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	getJSONTo(t, ts.URL+"/debug/obs/trace", &tr)
	named := map[string]bool{}
	pids := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" {
			name, _ := ev.Args["name"].(string)
			named[strings.Fields(name)[0]] = true
		} else {
			pids[ev.Pid] = true
		}
	}
	if len(pids) != runs {
		t.Errorf("trace view spans %d processes, want %d", len(pids), runs)
	}
	for _, rt := range s.slow.Snapshot() {
		if !named[rt.ID()] {
			t.Errorf("retained trace %s missing from /debug/obs/trace (named: %v)", rt.ID(), named)
		}
	}
}

// TestSpanConfigDigestVisible: the slow-ring size is part of the
// config-info digest, so differently-observable daemons are tellable
// apart from a scrape.
func TestSpanConfigDigestVisible(t *testing.T) {
	digestOf := func(cfg Config) string {
		cfg.Logger = quietLogger()
		s := New(cfg)
		defer s.Close()
		var sb strings.Builder
		rec := &headerRecorder{sb: &sb}
		s.Metrics.JSONHandler().ServeHTTP(rec, nil)
		var vars map[string]json.RawMessage
		if err := json.Unmarshal([]byte(sb.String()), &vars); err != nil {
			t.Fatal(err)
		}
		for key := range vars {
			if strings.HasPrefix(key, "mlpsimd_config_info{") && strings.Contains(key, `digest="`) {
				return key
			}
		}
		t.Fatalf("no config_info digest in vars:\n%s", sb.String())
		return ""
	}
	a := digestOf(Config{SlowRequests: 16})
	b := digestOf(Config{SlowRequests: 64})
	if a == b {
		t.Errorf("config digests identical across SlowRequests 16 vs 64:\n%s", a)
	}
}
