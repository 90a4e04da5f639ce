// Engine pooling for the serving layer: one simulation request no
// longer pays for building the multi-megabyte cache hierarchy, the
// structure rings and the epoch-record window — engines are recycled
// through epoch.Engine.Reconfigure, which resets them to an
// observationally fresh state while keeping every allocation whose
// geometry still fits the next request's configuration.
package sim

import (
	"context"
	"errors"
	"sync"

	"storemlp/internal/epoch"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
)

// Pool recycles epoch engines across simulation runs. The zero value
// is ready to use; Pool is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*epoch.Engine // guarded by mu
}

// NewPool returns an empty engine pool.
func NewPool() *Pool { return &Pool{} }

func (p *Pool) get() *epoch.Engine {
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

func (p *Pool) put(e *epoch.Engine) {
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
}

// Idle returns the number of engines currently parked in the pool
// (for tests and metrics).
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Run executes the simulation on a pooled engine.
func (p *Pool) Run(s Spec) (*epoch.Stats, error) {
	return p.RunContext(context.Background(), s)
}

// RunContext is Run with cancellation. It is a drop-in replacement for
// the package-level RunContext: the recycled engine is reconfigured to
// an observationally fresh state first, so results are identical.
func (p *Pool) RunContext(ctx context.Context, s Spec) (*epoch.Stats, error) {
	return p.run(ctx, s, trace.Start)
}

// run is RunContext with the producer stage opened by start.
func (p *Pool) run(ctx context.Context, s Spec, start startStage) (*epoch.Stats, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, opts := prepare(s)
	e := p.get()
	// A failed Reconfigure (or a cancelled run) leaves mid-run state
	// behind, but the next Reconfigure discards it, so the engine goes
	// back to the pool on every path.
	defer p.put(e)
	setup := func() (trace.Source, error) {
		if err := e.Reconfigure(cfg, opts...); err != nil {
			return nil, err
		}
		return BuildSource(s.Workload, cfg, s.Warm+s.Insts), nil
	}
	st, err := simulate(ctx, e, setup, start, func() string { return runLabel(s) }, s.Warm+s.Insts, s.Insts)
	if err != nil {
		return nil, err
	}
	// The engine exposes its own stats field; copy before the engine is
	// handed to the next request.
	out := *st
	return &out, nil
}

// RunTraceSource executes one trace-driven simulation on a pooled
// engine: Reconfigure resets the recycled engine to an observationally
// fresh state, so the result matches a fresh epoch.New run while
// steady-state replay reuses the cache hierarchy, the structure rings
// and the producer stage instead of rebuilding them per trace. When the
// occupancy rule grants a spare core (trace.Start) the trace decodes
// one batch ahead of the engine on a second goroutine, which is joined
// before RunTraceSource returns; otherwise it decodes inline. The
// statistics are identical either way.
func (p *Pool) RunTraceSource(ctx context.Context, src trace.FileSource, cfg uarch.Config, warm int64) (*epoch.Stats, error) {
	return p.runTrace(ctx, src, cfg, warm, trace.Start)
}

// runTrace is RunTraceSource with the producer stage opened by start.
func (p *Pool) runTrace(ctx context.Context, src trace.FileSource, cfg uarch.Config, warm int64, start startStage) (*epoch.Stats, error) {
	if src == nil {
		return nil, errors.New("sim: nil trace source")
	}
	cfg.WarmInsts = warm
	e := p.get()
	defer p.put(e)
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
