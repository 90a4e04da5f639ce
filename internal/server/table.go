package server

import (
	"container/list"
	"context"
	"sync"

	"storemlp/internal/obs"
)

// resultTable is the service's one digest-keyed store of runs. Each
// entry is either running — an execution that one or more requests are
// waiting on — or ready: a finished result on the LRU list. A request's
// probe and its join or claim are one critical section under mu, so no
// result can slip between "not cached" and "not running": N concurrent
// identical requests cost one engine execution, and while results are
// retained a digest executes once.
//
// Results are immutable once computed (the engine is deterministic
// given a spec), so ready entries are never invalidated, only evicted
// past retain; running entries are never on the list, so never
// evicted.
// An execution runs on a context derived from base, not from any one
// request, so one client disconnect cannot kill everyone else's
// result; it is cancelled when its last waiter leaves.
type resultTable struct {
	base    context.Context // server lifetime; cancelling it aborts every execution
	retain  int             // ready entries kept; 0 keeps none (coalescing only)
	evicted *obs.Counter    // ready entries dropped past retain
	size    *obs.Gauge      // ready entries held

	mu      sync.Mutex
	entries map[string]*tableEntry // guarded by mu
	lru     *list.List             // guarded by mu; ready entries, front = most recently used
}

// tableEntry is one digest's run. res and err are written once, before
// done closes (readers wait on done, or find the entry ready under the
// table's mu); waiters and elem change only under the table's mu.
type tableEntry struct {
	key     string
	done    chan struct{}
	ctx     context.Context // the execution's, derived from the table's base
	cancel  context.CancelFunc
	waiters int           // requests blocked on done
	elem    *list.Element // non-nil once ready
	res     *RunResult
	err     error
}

// entryState is what one probe found.
type entryState int

const (
	entryReady   entryState = iota // a retained result: a hit
	entryRunning                   // an execution in progress: the caller joined it
	entryClaimed                   // absent: the caller leads and must run the entry
)

func newResultTable(base context.Context, retain int, evicted *obs.Counter, size *obs.Gauge) *resultTable {
	return &resultTable{base: base, retain: retain, evicted: evicted, size: size,
		entries: make(map[string]*tableEntry), lru: list.New()}
}

// claim probes key: a ready entry moves to the front of the LRU list, a
// running one gains a waiter, and an absent key gets a running entry
// whose caller is its leader and first waiter: the leader executes on
// the entry's ctx and hands the outcome to finish.
func (t *resultTable) claim(key string) (*tableEntry, entryState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		if e.elem != nil {
			t.lru.MoveToFront(e.elem)
			return e, entryReady
		}
		e.waiters++
		return e, entryRunning
	}
	ctx, cancel := context.WithCancel(t.base)
	e := &tableEntry{key: key, done: make(chan struct{}), ctx: ctx, cancel: cancel, waiters: 1}
	t.entries[key] = e
	return e, entryClaimed
}

// finish publishes a claimed entry's outcome. A success is retained
// as ready, evicting the oldest ready entries past retain; an error, a
// table that retains nothing, or an entry already abandoned by its
// waiters leaves the digest unmapped.
func (t *resultTable) finish(e *tableEntry, res *RunResult, err error) {
	e.res, e.err = res, err
	e.cancel()
	t.mu.Lock()
	if t.entries[e.key] == e {
		if e.err != nil || t.retain == 0 {
			delete(t.entries, e.key)
		} else {
			e.elem = t.lru.PushFront(e)
			for t.lru.Len() > t.retain {
				oldest := t.lru.Remove(t.lru.Back()).(*tableEntry)
				delete(t.entries, oldest.key)
				t.evicted.Inc()
			}
			t.size.Set(int64(t.lru.Len()))
		}
	}
	t.mu.Unlock()
	close(e.done)
}

// wait blocks until e's execution ends or ctx does. A caller whose ctx
// ends leaves; the last waiter to leave a running entry unmaps it and
// cancels its execution, since nobody wants the result.
func (t *resultTable) wait(ctx context.Context, e *tableEntry) (*RunResult, error) {
	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
	}
	t.mu.Lock()
	e.waiters--
	orphaned := e.waiters == 0 && e.elem == nil && t.entries[e.key] == e
	if orphaned {
		delete(t.entries, e.key)
	}
	t.mu.Unlock()
	if orphaned {
		e.cancel()
	}
	return nil, ctx.Err()
}
