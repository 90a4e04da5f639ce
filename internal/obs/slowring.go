package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
)

// SlowRing retains the slowest-N completed request traces. Eviction
// policy: while fewer than N entries are held, every finished trace is
// admitted; once full, a new trace replaces the current fastest entry
// only if it is strictly slower — so the ring converges on the N
// slowest requests seen, not the N most recent. A trace whose ID
// collides with a retained one replaces it (IDs are unique in
// practice; the rule keeps Get unambiguous).
//
// Like every obs sink, a nil *SlowRing accepts all calls as no-ops and
// serves empty-but-valid endpoint responses, so handler wiring never
// depends on configuration.
type SlowRing struct {
	mu      sync.Mutex
	max     int
	entries []*ReqTrace // guarded by mu; unordered
}

// NewSlowRing returns a ring retaining the slowest max requests;
// max <= 0 returns nil — the disabled ring.
func NewSlowRing(max int) *SlowRing {
	if max <= 0 {
		return nil
	}
	return &SlowRing{max: max, entries: make([]*ReqTrace, 0, max)}
}

// Add offers a finished trace to the ring. Nil rings, nil traces and
// still-open traces (Dur 0) are ignored.
func (r *SlowRing) Add(t *ReqTrace) {
	if r == nil || t == nil {
		return
	}
	dur := t.Dur()
	if dur <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range r.entries {
		if e.ID() == t.ID() {
			r.entries[i] = t
			return
		}
	}
	if len(r.entries) < r.max {
		r.entries = append(r.entries, t)
		return
	}
	fastest, fdur := -1, int64(0)
	for i, e := range r.entries {
		if d := e.Dur(); fastest == -1 || d < fdur {
			fastest, fdur = i, d
		}
	}
	if dur > fdur {
		r.entries[fastest] = t
	}
}

// Get returns the retained trace with the given ID, or nil.
func (r *SlowRing) Get(id string) *ReqTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.ID() == id {
			return e
		}
	}
	return nil
}

// Len returns the number of retained traces.
func (r *SlowRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot returns the retained traces, slowest first.
func (r *SlowRing) Snapshot() []*ReqTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*ReqTrace, len(r.entries))
	copy(out, r.entries)
	r.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Dur() > out[b].Dur() })
	return out
}

// slowEntry is one row of the /debug/obs/slow listing: enough to spot
// the outlier and pivot to its full waterfall (/debug/obs/req?id=...)
// and its log line (trace_id).
type slowEntry struct {
	TraceID string             `json:"trace_id"`
	Label   string             `json:"label"`
	Status  int                `json:"status"`
	StartNS int64              `json:"start_unix_ns"`
	DurMS   float64            `json:"dur_ms"`
	Spans   int                `json:"spans"`
	Dropped int                `json:"dropped,omitempty"`
	Stages  map[string]float64 `json:"stages_ms"` // stage -> summed span ms
}

// WriteJSON renders the slow listing, slowest first.
func (r *SlowRing) WriteJSON(w http.ResponseWriter) error {
	traces := r.Snapshot()
	out := struct {
		Slowest []slowEntry `json:"slowest"`
	}{Slowest: make([]slowEntry, 0, len(traces))}
	for _, t := range traces {
		spans := t.Snapshot()
		stages := make(map[string]float64)
		for _, sp := range spans[1:] {
			if sp.End > 0 {
				stages[sp.Stage.String()] += float64(sp.End-sp.Start) / 1e6
			}
		}
		out.Slowest = append(out.Slowest, slowEntry{
			TraceID: t.ID(),
			Label:   t.Label(),
			Status:  t.Status(),
			StartNS: spans[0].Start,
			DurMS:   float64(t.Dur()) / 1e6,
			Spans:   len(spans),
			Dropped: t.Dropped(),
			Stages:  stages,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the slow-request listing (the /debug/obs/slow view).
// A nil ring serves an empty listing.
func (r *SlowRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// ReqHandler serves one retained request's span tree as Chrome
// trace_event JSON (the /debug/obs/req?id=... view). Unknown IDs — or
// any ID against a nil ring — return 404: traces are retained only
// while they remain among the slowest N.
func (r *SlowRing) ReqHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		t := r.Get(id)
		if t == nil {
			http.Error(w, "trace "+id+" not retained (evicted, or never among the slowest)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WriteChrome renders every retained trace as one Chrome trace_event
// JSON document (the /debug/obs/trace view and mlpsimd -trace-out):
// one process (pid) per trace, slowest first, each named by a
// process_name metadata event carrying its trace ID and label, on one
// timeline rebased to the earliest retained request. A nil or empty
// ring writes a valid empty trace.
func (r *SlowRing) WriteChrome(w io.Writer) error {
	traces := r.Snapshot()
	snaps := make([][]ReqSpan, len(traces))
	base := int64(0)
	for i, t := range traces {
		snaps[i] = t.Snapshot()
		if start := snaps[i][0].Start; i == 0 || start < base {
			base = start
		}
	}
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for i, t := range traces {
		pid := i + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": t.ID() + " " + t.Label()},
		})
		doc.TraceEvents = append(doc.TraceEvents, chromeSpans(snaps[i], base, pid)...)
	}
	return json.NewEncoder(w).Encode(doc)
}

// TraceHandler serves WriteChrome (the /debug/obs/trace view). A nil
// ring serves an empty trace rather than an error, so the endpoint
// shape does not depend on configuration.
func (r *SlowRing) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
