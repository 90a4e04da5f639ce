// Engine recycling: a run does not pay for building the multi-megabyte
// cache hierarchy, the structure rings and the epoch-record window —
// engines are recycled through epoch.Engine.Reconfigure, which resets
// them to an observationally fresh state while keeping every allocation
// whose geometry still fits the next run's configuration.
package sim

import (
	"context"
	"errors"
	"sync"

	"storemlp/internal/epoch"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
)

// enginePool is the process-wide free list every run leases its engine
// from. With bounded run concurrency it converges on one engine per
// concurrent run, so steady-state sweeps, replays and serving stop
// building simulator substrate.
type enginePool struct {
	mu   sync.Mutex
	free []*epoch.Engine // guarded by mu
}

var engines enginePool

func (p *enginePool) get() *epoch.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return e
	}
	return new(epoch.Engine)
}

func (p *enginePool) put(e *epoch.Engine) {
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
}

// IdleEngines returns the number of engines parked in the process-wide
// free list (for tests and metrics).
func IdleEngines() int {
	engines.mu.Lock()
	defer engines.mu.Unlock()
	return len(engines.free)
}

// RunTraceSource executes one trace-driven simulation on a leased
// engine: Reconfigure resets the recycled engine to an observationally
// fresh state, so the result matches a fresh epoch.New run while
// steady-state replay reuses the cache hierarchy, the structure rings
// and the producer stage instead of rebuilding them per trace. When the
// occupancy rule grants a spare core (trace.Start) the trace decodes
// one batch ahead of the engine on a second goroutine, which is joined
// before RunTraceSource returns; otherwise it decodes inline. The
// statistics are identical either way.
func RunTraceSource(ctx context.Context, src trace.FileSource, cfg uarch.Config, warm int64) (*epoch.Stats, error) {
	return runTrace(ctx, src, cfg, warm, trace.Start)
}

// runTrace is RunTraceSource with the producer stage opened by start.
func runTrace(ctx context.Context, src trace.FileSource, cfg uarch.Config, warm int64, start startStage) (*epoch.Stats, error) {
	if src == nil {
		return nil, errors.New("sim: nil trace source")
	}
	cfg.WarmInsts = warm
	e := engines.get()
	defer engines.put(e)
	// A trace opened from a file knows its length, so progress gets a
	// planned total; a trace streamed from an io.Reader has an unknown
	// length (0).
	var total, measured int64
	if n := src.SizeHint(); n >= 0 {
		total, measured = n, max(n-warm, 0)
	}
	setup := func() (trace.Source, error) {
		if err := e.Reconfigure(cfg); err != nil {
			return nil, err
		}
		return src, nil
	}
	st, err := simulate(ctx, e, setup, start, func() string { return "trace " + cfg.Name() }, total, measured)
	if err != nil {
		return nil, err
	}
	// simulate has stopped the producer stage, so the source is
	// quiescent.
	if err := src.Err(); err != nil {
		return nil, err
	}
	out := *st
	return &out, nil
}
