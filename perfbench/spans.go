package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Run    int64  `json:"run"`    // the operation (point, replay, request) it belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the benchmark started
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"` // units of work: instructions, accesses, requests
}

// tracer keeps spans in memory; write saves them once, at exit. Until
// record turns it on it only times: start and end still measure,
// nothing is kept.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool          // guarded by mu
	from  time.Time     // guarded by mu
	slice time.Duration // guarded by mu
	spans []span        // guarded by mu
}

// record turns recording on. With slice > 0 it keeps only the spans that
// start in the odd slices of that width counted from from, so one window
// alternates untraced and traced slices; with slice 0 it keeps every
// span.
func (t *tracer) record(from time.Time, slice time.Duration) {
	t.mu.Lock()
	t.on, t.from, t.slice = true, from, slice
	t.mu.Unlock()
}

// spanRef is an open span.
type spanRef struct {
	id, parent, run int64
	name            string
	start           time.Time
}

func (t *tracer) start(name string, parent, run int64) spanRef {
	ref := spanRef{parent: parent, run: run, name: name}
	now := time.Now()
	t.mu.Lock()
	if t.on && (t.slice == 0 || now.Sub(t.from)/t.slice%2 == 1) {
		ref.id = int64(len(t.spans)) + 1
		t.spans = append(t.spans, span{ID: ref.id}) // reserve the ID; end fills it in
	}
	t.mu.Unlock()
	ref.start = time.Now()
	return ref
}

// end closes the span with count units of work and returns its length.
func (t *tracer) end(ref spanRef, count int64) time.Duration {
	now := time.Now()
	d := now.Sub(ref.start)
	if ref.id != 0 {
		t.mu.Lock()
		t.spans[ref.id-1] = span{
			ID: ref.id, Parent: ref.parent, Run: ref.run, Name: ref.name,
			Start: int64(ref.start.Sub(t.t0)), End: int64(now.Sub(t.t0)), Count: count,
		}
		t.mu.Unlock()
	}
	return d
}

// total sums the length and work count of every closed span named name.
func (t *tracer) total(name string) (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d, n int64
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			d += s.End - s.Start
			n += s.Count
		}
	}
	return time.Duration(d), n
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
