package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestReqTraceTreeShape(t *testing.T) {
	rt := NewReqTrace("t1", 16, 0)
	if rt.ID() != "t1" {
		t.Fatalf("ID = %q, want t1", rt.ID())
	}
	root := rt.Root()
	parse := rt.StartSpan(StageParse, root)
	rt.EndSpan(parse, 0)
	dig := rt.StartSpan(StageDigest, root)
	rt.EndSpan(dig, 0)
	wait := rt.StartSpan(StagePoolWait, root)
	sim := rt.StartSpan(StageSimulate, wait)
	rt.EndSpan(sim, 42)
	rt.EndSpan(wait, 0)
	rt.Finish("POST /v1/run", 200)

	spans := rt.Snapshot()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[0].Stage != StageRequest || spans[0].Parent != NoSpan {
		t.Errorf("root = %+v, want StageRequest with NoSpan parent", spans[0])
	}
	if spans[0].End == 0 {
		t.Error("Finish left the root span open")
	}
	for i, sp := range spans[1:] {
		id := i + 1
		if sp.Parent < 0 || int(sp.Parent) >= id {
			t.Errorf("span %d parent %d is not an earlier span", id, sp.Parent)
		}
		if sp.End == 0 {
			t.Errorf("span %d (stage %s) left open", id, sp.Stage)
		}
		if sp.Start < spans[sp.Parent].Start {
			t.Errorf("span %d starts before its parent", id)
		}
		if sp.End > spans[sp.Parent].End {
			t.Errorf("span %d ends after its parent", id)
		}
	}
	if spans[4].Arg != 42 {
		t.Errorf("simulate arg = %d, want 42", spans[4].Arg)
	}
	if rt.Label() != "POST /v1/run" || rt.Status() != 200 {
		t.Errorf("Finish recorded (%q, %d), want (POST /v1/run, 200)", rt.Label(), rt.Status())
	}
	if rt.Dur() <= 0 {
		t.Errorf("Dur = %d, want > 0", rt.Dur())
	}
}

func TestReqTraceCapacityDrops(t *testing.T) {
	rt := NewReqTrace("cap", 3, 0) // root + 2
	a := rt.StartSpan(StageParse, rt.Root())
	b := rt.StartSpan(StageDigest, rt.Root())
	c := rt.StartSpan(StageRender, rt.Root())
	if a == NoSpan || b == NoSpan {
		t.Fatal("spans inside capacity rejected")
	}
	if c != NoSpan {
		t.Fatalf("span past capacity accepted as %d", c)
	}
	rt.EndSpan(c, 7) // must be a safe no-op
	if rt.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", rt.Dropped())
	}
	if n := len(rt.Snapshot()); n != 3 {
		t.Errorf("retained %d spans, want 3", n)
	}
}

func TestReqTraceNilSafety(t *testing.T) {
	var rt *ReqTrace
	if NewReqTrace("off", 0, 0) != nil {
		t.Error("NewReqTrace(0) should return the nil disabled trace")
	}
	id := rt.StartSpan(StageParse, rt.Root())
	if id != NoSpan {
		t.Errorf("nil StartSpan = %d, want NoSpan", id)
	}
	rt.EndSpan(id, 0)
	rt.Complete(StageBatch, NoSpan, Now(), 4096)
	rt.Instant(StageMeasureStart, NoSpan, 0)
	if rt.Detailed() {
		t.Error("nil trace reports Detailed")
	}
	rt.Finish("x", 200)
	if rt.ID() != "" || rt.Dur() != 0 || rt.Dropped() != 0 || rt.Snapshot() != nil {
		t.Error("nil trace accessors not zero-valued")
	}
	if err := rt.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteChrome: %v", err)
	}
	ctx := context.Background()
	if got := WithSpan(ctx, nil, NoSpan); got != ctx {
		t.Error("WithSpan(nil) should return ctx unchanged")
	}
	if tr, parent := SpanFrom(ctx); tr != nil || parent != NoSpan {
		t.Error("SpanFrom on a bare context should be (nil, NoSpan)")
	}
	if tr, parent := SpanFrom(nil); tr != nil || parent != NoSpan { //nolint:staticcheck
		t.Error("SpanFrom(nil) should be (nil, NoSpan)")
	}
}

// TestReqTraceDetailCap: engine-detail spans stop at the detail cap
// and count as drops, while request stages keep the rest of the arena;
// a zero cap records no detail at all.
func TestReqTraceDetailCap(t *testing.T) {
	rt := NewReqTrace("detail", 16, 3)
	if !rt.Detailed() {
		t.Fatal("detail cap 3 should report Detailed")
	}
	sim := rt.StartSpan(StageSimulate, rt.Root())
	for i := 0; i < 5; i++ {
		rt.Complete(StageBatch, sim, Now(), int64(i))
	}
	rt.Instant(StageMeasureStart, sim, 7)
	rt.EndSpan(sim, 0)
	render := rt.StartSpan(StageRender, rt.Root())
	if render == NoSpan {
		t.Fatal("request stage rejected after the detail cap filled")
	}
	rt.EndSpan(render, 0)
	if rt.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3 (two batches and the instant past cap 3)", rt.Dropped())
	}
	details := 0
	for _, sp := range rt.Snapshot() {
		if sp.Stage.Detail() {
			details++
			if sp.Parent != sim {
				t.Errorf("detail span %s parent %d, want simulate %d", sp.Stage, sp.Parent, sim)
			}
			if sp.End < sp.Start || sp.End == 0 {
				t.Errorf("detail span %s not closed: %+v", sp.Stage, sp)
			}
		}
	}
	if details != 3 {
		t.Errorf("retained %d detail spans, want 3", details)
	}

	off := NewReqTrace("nodetail", 16, -1)
	if off.Detailed() {
		t.Error("negative detail cap should not report Detailed")
	}
	off.Complete(StageBatch, off.Root(), Now(), 1)
	if n := len(off.Snapshot()); n != 1 || off.Dropped() != 1 {
		t.Errorf("zero-cap trace kept %d spans, dropped %d; want 1 and 1", n, off.Dropped())
	}
}

func TestWithSpanRoundTrip(t *testing.T) {
	rt := NewReqTrace("ctx", 8, 0)
	sim := rt.StartSpan(StageSimulate, rt.Root())
	ctx := WithSpan(context.Background(), rt, sim)
	got, parent := SpanFrom(ctx)
	if got != rt || parent != sim {
		t.Fatalf("SpanFrom = (%p, %d), want (%p, %d)", got, parent, rt, sim)
	}
}

// TestRequestSpanZeroAllocDisabled is the span analog of the engine's
// TestStepZeroAllocTracerDisabled: with span tracing off (nil trace —
// the probe-request and tracing-disabled paths), the full per-request
// span choreography allocates nothing.
func TestRequestSpanZeroAllocDisabled(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		rt, parent := SpanFrom(ctx)
		ctx2 := WithSpan(ctx, rt, parent)
		sp := rt.StartSpan(StagePoolWait, parent)
		rt.EndSpan(sp, 0)
		rt2, parent2 := SpanFrom(ctx2)
		sim := rt2.StartSpan(StageSimulate, parent2)
		rt2.EndSpan(sim, 0)
		rt.Finish("", 0)
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocated %.0f objects per request, want exactly 0", allocs)
	}
}

// TestWriteChromeRoundTrip: the per-request Chrome export must be
// valid encoding/json output whose events survive a decode/encode
// round trip with the span tree intact.
func TestWriteChromeRoundTrip(t *testing.T) {
	rt := NewReqTrace("chrome", 16, 0)
	root := rt.Root()
	parse := rt.StartSpan(StageParse, root)
	rt.EndSpan(parse, 0)
	for i := 0; i < 3; i++ {
		sim := rt.StartSpan(StageSimulate, root)
		rt.EndSpan(sim, int64(i))
	}
	open := rt.StartSpan(StageRender, root)
	_ = open // deliberately left open: must render, not corrupt
	rt.Finish("GET /x", 200)

	var buf bytes.Buffer
	if err := rt.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Ts   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	spans := rt.Snapshot()
	if len(decoded.TraceEvents) != len(spans) {
		t.Fatalf("export has %d events, trace has %d spans", len(decoded.TraceEvents), len(spans))
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", decoded.DisplayTimeUnit)
	}
	for i, ev := range decoded.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %d ph = %q, want X", i, ev.Ph)
		}
		if want := spans[i].Stage.String(); ev.Name != want {
			t.Errorf("event %d name = %q, want %q", i, ev.Name, want)
		}
		if ev.Args["span"] != int64(i) || ev.Args["parent"] != int64(spans[i].Parent) {
			t.Errorf("event %d args = %v, want span=%d parent=%d", i, ev.Args, i, spans[i].Parent)
		}
	}
	// Re-encode: byte-level stability is not required, but the decoded
	// form must itself marshal cleanly (no NaN/Inf smuggled through).
	if _, err := json.Marshal(decoded); err != nil {
		t.Errorf("decoded export does not re-encode: %v", err)
	}
}

// TestWriteChromeInstants: instant stages render as Chrome "i" events
// with no duration; intervals stay "X".
func TestWriteChromeInstants(t *testing.T) {
	rt := NewReqTrace("instants", 8, 8)
	sim := rt.StartSpan(StageSimulate, rt.Root())
	rt.Instant(StageMeasureStart, sim, 100)
	rt.Complete(StageBatch, sim, Now(), 4096)
	rt.Instant(StageWindowGrow, sim, 512)
	rt.EndSpan(sim, 0)
	rt.Finish("GET /x", 200)

	var buf bytes.Buffer
	if err := rt.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	want := map[string]string{"request": "X", "simulate": "X", "batch": "X", "measure_start": "i", "window_grow": "i"}
	if len(decoded.TraceEvents) != len(want) {
		t.Fatalf("export has %d events, want %d", len(decoded.TraceEvents), len(want))
	}
	for _, ev := range decoded.TraceEvents {
		name, _ := ev["name"].(string)
		if ph := ev["ph"]; ph != want[name] {
			t.Errorf("%s ph = %v, want %s", name, ph, want[name])
		}
		if _, hasDur := ev["dur"]; ev["ph"] == "i" && hasDur {
			t.Errorf("instant %s carries a duration", name)
		}
	}
}

// TestWriteChrome: the ring's combined export lists every retained
// trace as its own process, named by a process_name event, and a nil
// ring exports a valid empty trace.
func TestWriteChrome(t *testing.T) {
	r := NewSlowRing(4)
	ids := []string{"a1", "b2", "c3"}
	for i, id := range ids {
		rt := NewReqTrace(id, 8, 4)
		sim := rt.StartSpan(StageSimulate, rt.Root())
		rt.Complete(StageFold, sim, Now(), 1)
		rt.EndSpan(sim, 0)
		rt.mu.Lock()
		rt.spans[0].End = rt.spans[0].Start + int64(i+1)*1e6
		rt.mu.Unlock()
		rt.Finish("POST /v1/run", 200)
		r.Add(rt)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	named := map[int]string{}
	spans := map[int]int{}
	for _, ev := range decoded.TraceEvents {
		if ev.Ph == "M" {
			named[ev.Pid], _ = ev.Args["name"].(string)
			continue
		}
		if ev.Ts < 0 {
			t.Errorf("event %s at ts %v precedes the rebased origin", ev.Name, ev.Ts)
		}
		spans[ev.Pid]++
	}
	if len(named) != len(ids) || len(spans) != len(ids) {
		t.Fatalf("export names %d processes with spans in %d, want %d each", len(named), len(spans), len(ids))
	}
	// Slowest first: c3 (3ms) is pid 1.
	for pid, id := range map[int]string{1: "c3", 2: "b2", 3: "a1"} {
		if named[pid] != id+" POST /v1/run" {
			t.Errorf("pid %d named %q, want %q", pid, named[pid], id+" POST /v1/run")
		}
		if spans[pid] != 3 {
			t.Errorf("pid %d has %d span events, want 3 (request, simulate, fold)", pid, spans[pid])
		}
	}

	var nilRing *SlowRing
	rec := httptest.NewRecorder()
	nilRing.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"traceEvents":[]`) {
		t.Errorf("nil ring trace: code %d body %q", rec.Code, rec.Body.String())
	}
}

func finishedTrace(id string, durNS int64) *ReqTrace {
	rt := NewReqTrace(id, 4, 0)
	rt.mu.Lock()
	rt.spans[0].End = rt.spans[0].Start + durNS
	rt.mu.Unlock()
	rt.Finish("POST /v1/run", 200)
	return rt
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	r := NewSlowRing(3)
	for i, dur := range []int64{5e6, 1e6, 9e6, 3e6, 7e6, 2e6} {
		r.Add(finishedTrace(fmt.Sprintf("r%d", i), dur))
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	got := []string{snap[0].ID(), snap[1].ID(), snap[2].ID()}
	want := []string{"r2", "r4", "r0"} // 9ms, 7ms, 5ms
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slowest order = %v, want %v", got, want)
		}
	}
	if r.Get("r1") != nil {
		t.Error("fast trace r1 should have been evicted")
	}
	if tr := r.Get("r2"); tr == nil || tr.Dur() != 9e6 {
		t.Error("slowest trace r2 not retrievable by ID")
	}
}

func TestSlowRingNilAndOpenTraces(t *testing.T) {
	var r *SlowRing
	if NewSlowRing(0) != nil {
		t.Error("NewSlowRing(0) should return the nil disabled ring")
	}
	r.Add(finishedTrace("x", 1e6)) // no-op, must not panic
	if r.Len() != 0 || r.Get("x") != nil || r.Snapshot() != nil {
		t.Error("nil ring accessors not zero-valued")
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/slow", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"slowest"`) {
		t.Errorf("nil ring listing: code %d body %q", rec.Code, rec.Body.String())
	}

	live := NewSlowRing(2)
	open := NewReqTrace("open", 4, 0) // never finished: Dur 0
	live.Add(open)
	if live.Len() != 0 {
		t.Error("open trace admitted to the ring")
	}
}

func TestSlowRingHandlers(t *testing.T) {
	r := NewSlowRing(4)
	rt := finishedTrace("deadbeef", 4e6)
	r.Add(rt)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/slow", nil))
	var listing struct {
		Slowest []struct {
			TraceID string  `json:"trace_id"`
			Label   string  `json:"label"`
			Status  int     `json:"status"`
			DurMS   float64 `json:"dur_ms"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("slow listing is not valid JSON: %v", err)
	}
	if len(listing.Slowest) != 1 || listing.Slowest[0].TraceID != "deadbeef" ||
		listing.Slowest[0].Label != "POST /v1/run" || listing.Slowest[0].Status != 200 {
		t.Fatalf("listing = %+v", listing)
	}
	if d := listing.Slowest[0].DurMS; d < 3.9 || d > 4.1 {
		t.Errorf("dur_ms = %v, want ~4", d)
	}

	rec = httptest.NewRecorder()
	r.ReqHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/req?id=deadbeef", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"traceEvents"`) {
		t.Errorf("req export: code %d body %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	r.ReqHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/req?id=unknown", nil))
	if rec.Code != 404 {
		t.Errorf("unknown id: code %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	r.ReqHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs/req", nil))
	if rec.Code != 400 {
		t.Errorf("missing id: code %d, want 400", rec.Code)
	}
}

func TestStageStrings(t *testing.T) {
	all := Stages()
	if len(all) != int(stageCount) {
		t.Fatalf("Stages() returned %d, want %d", len(all), stageCount)
	}
	seen := map[string]bool{}
	for _, s := range all {
		name := s.String()
		if name == "unknown" || name == "" {
			t.Errorf("stage %d has no name", s)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range stage should stringify as unknown")
	}
}

// TestEventKindString pins the trace-export names of the run events the
// engine and the serving pipeline record: they are Stage values now, and
// a saved trace must keep reading the same names. Only the engine's own
// events are detail stages.
func TestEventKindString(t *testing.T) {
	cases := []struct {
		s      Stage
		name   string
		detail bool
	}{
		{StageParse, "parse", false},
		{StageSimulate, "simulate", false},
		{StageBatch, "batch", true},
		{StageFold, "fold", true},
		{StageRender, "render", false},
		{StageWindowGrow, "window_grow", true},
		{StageMeasureStart, "measure_start", true},
		{StageDecode, "decode", true},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.name {
			t.Errorf("Stage(%d).String() = %q, want %q", c.s, got, c.name)
		}
		if got := c.s.Detail(); got != c.detail {
			t.Errorf("%s.Detail() = %v, want %v", c.name, got, c.detail)
		}
	}
}

// TestTracerNilSafe: the nil *ReqTrace is the disabled tracer the engine
// holds. Its recording calls are no-ops and its Chrome export is an
// empty but well-formed trace.
func TestTracerNilSafe(t *testing.T) {
	var rt *ReqTrace
	if rt.Root() != NoSpan {
		t.Error("nil Root != NoSpan")
	}
	rt.Complete(StageBatch, rt.Root(), Now(), 1) // must not panic
	rt.Instant(StageWindowGrow, rt.Root(), 1)
	if rt.Label() != "" || rt.Status() != 0 || rt.Snapshot() != nil {
		t.Error("nil tracer should report empty state")
	}
	var b strings.Builder
	if err := rt.WriteChrome(&b); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	if !strings.Contains(b.String(), `"traceEvents":[]`) {
		t.Errorf("nil trace not empty: %s", b.String())
	}
}
