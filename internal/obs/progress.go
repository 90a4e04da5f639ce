package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counters are one run's live engine counters, the unit the engine
// publishes in.
type Counters struct {
	Insts          int64 // instructions stepped, incl. warmup
	Measured       int64 // measured (post-warmup) instructions folded into stats
	Epochs         int64 // epochs closed (folded out of the window)
	LoadInstMisses int64 // load + ifetch misses folded
	StoreMisses    int64 // store misses folded
}

// runCounters sums the live state of every run a ReqTrace has carried;
// a Board keeps runs started and finished, insts and epochs.
type runCounters struct {
	started  atomic.Int64 // runs begun
	finished atomic.Int64 // runs ended
	planned  atomic.Int64 // planned instructions incl. warmup (0 when unknown)
	insts    atomic.Int64
	measured atomic.Int64
	epochs   atomic.Int64
	loadInst atomic.Int64
	stores   atomic.Int64
}

// BeginRun records the start of one engine run under t: label names it
// (the live views show the latest run's label) and planned is its
// instruction total including warmup, 0 when unknown. A trace made by
// Board.NewReqTrace joins its board's active set.
func (t *ReqTrace) BeginRun(label string, planned int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = label
	t.mu.Unlock()
	t.live.planned.Add(planned)
	t.live.started.Add(1)
	if b := t.board; b != nil {
		b.live.started.Add(1)
		b.mu.Lock()
		b.active[t] = struct{}{}
		b.mu.Unlock()
	}
}

// EndRun records the end, successful or not, of a run begun with
// BeginRun. When no run of t is left in flight t leaves its board; the
// check runs under the board's lock, so a run begun concurrently
// either keeps t in the set or re-adds it after.
func (t *ReqTrace) EndRun() {
	if t == nil {
		return
	}
	t.live.finished.Add(1)
	if b := t.board; b != nil {
		b.live.finished.Add(1)
		b.mu.Lock()
		if t.live.active() == 0 {
			delete(b.active, t)
		}
		b.mu.Unlock()
	}
}

// Publish adds the change from *last to cur to the live counters of t
// and its board, and sets *last = cur. The engine calls this once per
// 4096-instruction batch with last local to the run: adding deltas
// keeps the sums exact when many runs share one trace (a sweep's
// points, the experiments harness), and costs a handful of atomic adds
// amortized over thousands of steps.
//
//storemlp:noalloc
func (t *ReqTrace) Publish(cur Counters, last *Counters) {
	if t == nil {
		return
	}
	t.live.insts.Add(cur.Insts - last.Insts)
	t.live.measured.Add(cur.Measured - last.Measured)
	t.live.epochs.Add(cur.Epochs - last.Epochs)
	t.live.loadInst.Add(cur.LoadInstMisses - last.LoadInstMisses)
	t.live.stores.Add(cur.StoreMisses - last.StoreMisses)
	if b := t.board; b != nil {
		b.live.insts.Add(cur.Insts - last.Insts)
		b.live.epochs.Add(cur.Epochs - last.Epochs)
	}
	*last = cur
}

// active reports how many runs c has in flight. It loads finished
// first, so the count never reads negative.
func (c *runCounters) active() int64 {
	finished := c.finished.Load()
	return c.started.Load() - finished
}

// Snapshot is a consistent-enough view of one trace's runs for
// display: the counters are read individually (each atomically), which
// is exact at batch boundaries and at most one batch stale between
// them.
type Snapshot struct {
	Label          string        `json:"label"`
	Total          int64         `json:"total_insts"`
	Insts          int64         `json:"insts"`
	Measured       int64         `json:"measured_insts"`
	Epochs         int64         `json:"epochs"`
	LoadInstMisses int64         `json:"load_inst_misses"`
	StoreMisses    int64         `json:"store_misses"`
	MLP            float64       `json:"mlp"`
	Elapsed        time.Duration `json:"elapsed_ns"`
	InstsPerSec    float64       `json:"insts_per_sec"`
	Done           bool          `json:"done"`
}

// Live reads the current state of t's runs: the latest run's label,
// counters summed over every run, and the time since the trace began.
// MLP is the running mean misses per epoch over the epochs folded so
// far — the paper's MLP measure, live. Done means no run is in flight.
func (t *ReqTrace) Live() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	label := t.run
	t.mu.Unlock()
	s := Snapshot{
		Label:          label,
		Total:          t.live.planned.Load(),
		Insts:          t.live.insts.Load(),
		Measured:       t.live.measured.Load(),
		Epochs:         t.live.epochs.Load(),
		LoadInstMisses: t.live.loadInst.Load(),
		StoreMisses:    t.live.stores.Load(),
		Elapsed:        time.Duration(Now() - t.start),
		Done:           t.live.active() == 0,
	}
	if s.Epochs > 0 {
		s.MLP = float64(s.LoadInstMisses+s.StoreMisses) / float64(s.Epochs)
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.InstsPerSec = float64(s.Insts) / sec
	}
	return s
}

// Totals aggregates a Board over every run it has seen, with
// instructions and epochs counted live, so a view shows overall
// throughput while a sweep is mid-flight.
type Totals struct {
	ActiveRuns   int   `json:"active_runs"`
	FinishedRuns int64 `json:"finished_runs"`
	Insts        int64 `json:"insts"`
	Epochs       int64 `json:"epochs"`
}

// Runs is the /debug/obs/runs document.
type Runs struct {
	Active []Snapshot `json:"active"`
	Totals Totals     `json:"totals"`
}

// Board is the set of in-flight traces that have begun a run — the
// data behind /debug/obs/runs — plus totals over every run of its
// traces. A trace joins at its first BeginRun and leaves when its last
// run ends, so requests that never run the engine (cache hits,
// coalesced followers) never take the board lock. A nil *Board accepts
// every call as a no-op.
type Board struct {
	live runCounters

	mu     sync.Mutex
	active map[*ReqTrace]struct{} // guarded by mu
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{active: make(map[*ReqTrace]struct{})}
}

// NewReqTrace is the package-level NewReqTrace for a trace whose runs
// report to b.
func (b *Board) NewReqTrace(id string, spanCap, detailCap int) *ReqTrace {
	t := NewReqTrace(id, spanCap, detailCap)
	if t != nil {
		t.board = b
	}
	return t
}

// Runs snapshots the in-flight traces, oldest first, and the totals.
func (b *Board) Runs() Runs {
	if b == nil {
		return Runs{Active: []Snapshot{}}
	}
	b.mu.Lock()
	ts := make([]*ReqTrace, 0, len(b.active))
	for t := range b.active {
		ts = append(ts, t)
	}
	b.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].start < ts[j].start })
	doc := Runs{Active: make([]Snapshot, len(ts)), Totals: Totals{
		ActiveRuns:   int(b.live.active()),
		FinishedRuns: b.live.finished.Load(),
		Insts:        b.live.insts.Load(),
		Epochs:       b.live.epochs.Load(),
	}}
	for i, t := range ts {
		doc.Active[i] = t.Live()
	}
	return doc
}

// Handler serves the board as JSON (the /debug/obs/runs view). A nil
// board serves the empty document.
func (b *Board) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b.Runs()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
