package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Request-scoped tracing: the span tree answers "where did THIS
// request's milliseconds go". Each HTTP request owns one ReqTrace — a
// fixed-capacity arena of stage-labelled spans forming a tree rooted
// at the request itself — propagated down the serving pipeline via
// context, so the digest lookup, the result-table probe, the coalesce
// wait, the worker-slot wait, the simulation and the engine's own
// instruction batches all land as intervals attributable to one trace
// ID. The completed tree feeds per-stage
// latency histograms, the slowest-N ring (slowring.go) and the Chrome
// trace_event exports.
//
// Everything is nil-safe: a nil *ReqTrace accepts every call as a
// no-op and WithSpan returns its context unchanged, so the disabled
// path (probe requests, span tracing off) allocates nothing —
// TestRequestSpanZeroAllocDisabled pins that.

// Stage labels a request span with the pipeline stage it timed. The
// set mirrors the serving pipeline: parse → digest → cache-probe →
// (coalesce-wait | pool-wait → simulate) → render,
// followed by the engine-detail stages the epoch engine records inside
// each simulate span.
type Stage uint8

const (
	// StageRequest is the root span: the whole HTTP request.
	StageRequest Stage = iota
	// StageParse covers request-body decoding.
	StageParse
	// StageDigest covers spec resolution and canonical digesting.
	StageDigest
	// StageCacheProbe covers the result-table lookup (arg 1 = hit).
	StageCacheProbe
	// StageCoalesceWait covers a follower waiting on an identical
	// in-flight execution (the leader's trace carries the real work).
	StageCoalesceWait
	// StagePoolWait covers waiting for a worker slot.
	StagePoolWait
	// StageSimulate covers one engine execution, from configuring the
	// engine and building its instruction source to the folded stats.
	// The engine-detail spans of that execution nest under it.
	StageSimulate
	// StageRender covers response encoding.
	StageRender
	// StageBatch covers one instruction block through the engine's step
	// loop (arg is the block length). First of the engine-detail stages.
	StageBatch
	// StageFold covers end-of-run window folding and stats finalization
	// (arg is the epoch count).
	StageFold
	// StageWindowGrow marks an epoch-record ring doubling — the
	// pathological fallback path (instant; arg is the new ring length).
	StageWindowGrow
	// StageMeasureStart marks the warmup→measurement transition
	// (instant; arg is the instruction index).
	StageMeasureStart
	// StageDecode covers a run's source-ahead producer — colv1 decode
	// for a trace-driven run, the workload generator plus its rewrite
	// chain for a synthetic one — from its first source read to its
	// exit; it overlaps the batch spans it feeds (arg is the
	// instruction count produced).
	StageDecode
	stageCount
)

// String returns the stage name used in metric labels, trace exports
// and the slow-request listing.
func (s Stage) String() string {
	if s >= stageCount {
		return "unknown"
	}
	return [...]string{"request", "parse", "digest", "cache_probe", "coalesce_wait",
		"pool_wait", "simulate", "render",
		"batch", "fold", "window_grow", "measure_start", "decode"}[s]
}

// Detail reports whether s is an engine-detail stage: recorded by the
// epoch engine through Complete/Instant, bounded by the trace's detail
// cap, and nested inside a simulate span rather than being a stage of
// the request pipeline itself.
func (s Stage) Detail() bool { return s >= StageBatch && s < stageCount }

// instant reports whether s marks a point in time rather than an
// interval.
func (s Stage) instant() bool { return s == StageWindowGrow || s == StageMeasureStart }

// Stages returns every defined stage, StageRequest first. The serving
// layer iterates this to register one latency histogram per pipeline
// stage.
func Stages() []Stage {
	out := make([]Stage, stageCount)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// SpanID indexes a span inside its ReqTrace. NoSpan is returned by a
// disabled trace (nil receiver or full arena) and is accepted as a
// no-op by EndSpan and as a parent by StartSpan.
type SpanID int32

// NoSpan is the absent span: the disabled-path sentinel.
const NoSpan SpanID = -1

// ReqSpan is one recorded interval of a request. End == 0 means the
// span is still open (or was abandoned by an error path).
type ReqSpan struct {
	Stage  Stage  `json:"stage"`
	Parent SpanID `json:"parent"` // NoSpan for the root
	Arg    int64  `json:"arg,omitempty"`
	Start  int64  `json:"start"` // ns, Now() timebase
	End    int64  `json:"end"`   // ns; 0 while open
}

// ReqTrace is one request's span tree: a fixed-capacity span arena
// whose slot 0 is the root (StageRequest) span. Spans past the
// capacity are dropped and counted, never reallocated, so one request
// costs one bounded allocation however many stages it fans out to.
// Engine-detail spans are further bounded by the trace's detail cap,
// so a long run's instruction batches cannot crowd the request stages
// out of the arena. The trace also carries the live counters of the
// engine runs under it (progress.go). All methods are safe for
// concurrent use (sweep points and the source-ahead producer record
// spans from many goroutines) and nil-safe.
type ReqTrace struct {
	id        string // immutable after construction
	detailCap int    // immutable; engine-detail spans accepted, <= 0 = none
	board     *Board // immutable after construction; nil = no board
	start     int64  // immutable; the root span's start

	live runCounters

	mu      sync.Mutex
	spans   []ReqSpan // guarded by mu; cap fixed at construction
	details int       // guarded by mu; engine-detail spans accepted so far
	dropped int       // guarded by mu; spans rejected by a full arena or detail cap
	label   string    // guarded by mu; "METHOD /path", set by Finish
	status  int       // guarded by mu; HTTP status, set by Finish
	run     string    // guarded by mu; label of the latest run, set by BeginRun
}

// NewReqTrace starts a request trace with the given ID, span capacity
// and engine-detail cap; the root span opens immediately. spanCap <= 0
// returns nil — the disabled trace. detailCap <= 0 keeps the request
// stages but records no engine detail (Detailed reports false); the
// live run counters record either way.
func NewReqTrace(id string, spanCap, detailCap int) *ReqTrace {
	if spanCap <= 0 {
		return nil
	}
	t := &ReqTrace{id: id, detailCap: detailCap, start: Now(), spans: make([]ReqSpan, 0, spanCap)}
	t.mu.Lock()
	t.spans = append(t.spans, ReqSpan{Stage: StageRequest, Parent: NoSpan, Start: t.start})
	t.mu.Unlock()
	return t
}

// ID returns the trace ID ("" for a nil trace).
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span's ID (NoSpan for a nil trace).
func (t *ReqTrace) Root() SpanID {
	if t == nil {
		return NoSpan
	}
	return 0
}

// StartSpan opens a span under parent and returns its ID. A nil trace
// or a full arena returns NoSpan (the latter also counts the drop);
// either way the caller's matching EndSpan is a safe no-op.
func (t *ReqTrace) StartSpan(stage Stage, parent SpanID) SpanID {
	if t == nil {
		return NoSpan
	}
	start := Now()
	t.mu.Lock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		t.mu.Unlock()
		return NoSpan
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, ReqSpan{Stage: stage, Parent: parent, Start: start})
	t.mu.Unlock()
	return id
}

// EndSpan closes a span, recording its kind-specific arg. Nil traces
// and NoSpan IDs are no-ops; ending a span twice keeps the first end.
func (t *ReqTrace) EndSpan(id SpanID, arg int64) {
	if t == nil || id < 0 {
		return
	}
	end := Now()
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].End == 0 {
		t.spans[id].End = end
		t.spans[id].Arg = arg
	}
	t.mu.Unlock()
}

// Detailed reports whether the trace records engine-detail spans:
// false for a nil trace or a detail cap <= 0. Callers check it once per
// run before attaching the trace to an engine, so a trace without
// detail costs the engine nothing.
func (t *ReqTrace) Detailed() bool { return t != nil && t.detailCap > 0 }

// Complete records an engine-detail span of stage under parent that
// began at start (a Now() value) and ends now. This is the
// engine-facing fast path: one branch when the trace is nil, one
// uncontended lock and a slot write otherwise. Past the detail cap or
// the arena capacity the span is dropped and counted.
//
//storemlp:noalloc
func (t *ReqTrace) Complete(stage Stage, parent SpanID, start, arg int64) {
	if t == nil {
		return
	}
	t.detail(ReqSpan{Stage: stage, Parent: parent, Arg: arg, Start: start, End: Now()})
}

// Instant records an engine-detail instant of stage under parent: a
// zero-length span the Chrome export renders as a point event.
//
//storemlp:noalloc
func (t *ReqTrace) Instant(stage Stage, parent SpanID, arg int64) {
	if t == nil {
		return
	}
	now := Now()
	t.detail(ReqSpan{Stage: stage, Parent: parent, Arg: arg, Start: now, End: now})
}

// detail appends one closed engine-detail span within the detail cap.
//
//storemlp:noalloc
func (t *ReqTrace) detail(sp ReqSpan) {
	t.mu.Lock()
	if t.details >= t.detailCap || len(t.spans) == cap(t.spans) {
		t.dropped++
	} else {
		t.details++
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Finish closes the root span and records the request's identity for
// the slow-request listing. Spans recorded after Finish (a coalescing
// leader that abandoned its request while followers kept the execution
// alive) still land in the arena; they may extend past the root.
func (t *ReqTrace) Finish(label string, status int) {
	if t == nil {
		return
	}
	end := Now()
	t.mu.Lock()
	if t.spans[0].End == 0 {
		t.spans[0].End = end
	}
	t.label, t.status = label, status
	t.mu.Unlock()
}

// Dur returns the root span's duration in nanoseconds (0 while the
// request is still in flight, or for a nil trace).
func (t *ReqTrace) Dur() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[0].End == 0 {
		return 0
	}
	return t.spans[0].End - t.spans[0].Start
}

// Label returns the request identity recorded by Finish.
func (t *ReqTrace) Label() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.label
}

// Status returns the HTTP status recorded by Finish.
func (t *ReqTrace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Dropped returns how many spans a full arena or the detail cap
// rejected.
func (t *ReqTrace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot copies out the recorded spans in creation order (slot 0 is
// the root).
func (t *ReqTrace) Snapshot() []ReqSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ReqSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// ---- context propagation ----

// spanCtx carries the live trace and the span new children should
// attach under. Stored by value: the context boxing is the enabled
// path's only extra allocation.
type spanCtx struct {
	t      *ReqTrace
	parent SpanID
}

// spanKey is the private context key for a spanCtx.
type spanKey struct{}

// WithSpan returns a context under which spans started via SpanFrom
// attach to t under parent. A nil t returns ctx unchanged, so the
// disabled path allocates nothing.
func WithSpan(ctx context.Context, t *ReqTrace, parent SpanID) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanCtx{t: t, parent: parent})
}

// SpanFrom returns the request trace carried by ctx and the span to
// parent new work under, or (nil, NoSpan) when the context carries
// none — the nil trace accepts every call as a no-op.
func SpanFrom(ctx context.Context) (*ReqTrace, SpanID) {
	if ctx == nil {
		return nil, NoSpan
	}
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	if !ok {
		return nil, NoSpan
	}
	return sc.t, sc.parent
}

// ---- Chrome trace export ----

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto, speedscope all read it). ph "X" is a
// complete span with a duration, ph "i" an instant, ph "M" metadata
// naming a process.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level Chrome trace_event JSON document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders the span tree as Chrome trace_event JSON (the
// /debug/obs/req view): one event per span in creation order —
// complete ("X") for intervals, instant ("i") for the point stages —
// with timestamps rebased to the root's start. Args carry the span ID,
// parent and stage arg, so the tree structure survives the export.
func (t *ReqTrace) WriteChrome(w io.Writer) error {
	spans := t.Snapshot()
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if len(spans) > 0 {
		doc.TraceEvents = chromeSpans(spans, spans[0].Start, 1)
	}
	return json.NewEncoder(w).Encode(doc)
}

// chromeSpans encodes one trace's spans as the events of process pid,
// timestamps relative to base. Concurrent spans are split onto
// separate tracks (tid) by greedy interval packing so concurrent spans
// (sweep points, decode beside batches) render side by side.
func chromeSpans(spans []ReqSpan, base int64, pid int) []chromeEvent {
	// Greedy track packing: visit spans by start time, place each on
	// the first track whose previous occupant already ended.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	var trackEnd []int64
	events := make([]chromeEvent, len(spans))
	for _, i := range order {
		sp := spans[i]
		end := sp.End
		if end == 0 {
			end = sp.Start // open span: render as zero-width
		}
		tid := -1
		for tr, te := range trackEnd {
			if te <= sp.Start {
				tid = tr
				break
			}
		}
		if tid == -1 {
			tid = len(trackEnd)
			trackEnd = append(trackEnd, 0)
		}
		trackEnd[tid] = end
		ev := chromeEvent{
			Name: sp.Stage.String(),
			Ph:   "X",
			Ts:   float64(sp.Start-base) / 1e3,
			Dur:  float64(end-sp.Start) / 1e3,
			Pid:  pid,
			Tid:  tid,
			Args: map[string]any{"span": i, "parent": sp.Parent, "arg": sp.Arg},
		}
		if sp.Stage.instant() {
			ev.Ph, ev.Dur, ev.S = "i", 0, "t"
		}
		events[i] = ev
	}
	return events
}
