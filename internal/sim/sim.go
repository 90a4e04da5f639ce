// Package sim composes a workload generator, the memory-consistency
// trace transforms, remote coherence traffic and the epoch engine into a
// single runnable simulation — the equivalent of one MLPsim invocation.
package sim

import (
	"context"
	"fmt"

	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/obs"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Spec describes one simulation run.
type Spec struct {
	// Workload selects and calibrates the trace generator.
	Workload workload.Params
	// Config is the machine configuration. A run sets its WarmInsts
	// from Warm below.
	Config uarch.Config
	// Insts is the number of measured instructions (after warmup).
	Insts int64
	// Warm is the cache warmup prefix, excluded from statistics.
	Warm int64
	// DisableTraffic turns off remote coherence snoops even when
	// Config.Nodes > 1 (single-node behaviour).
	DisableTraffic bool // storemlpvet:novalidate (both states valid)
	// SharedCore co-schedules a second copy of the workload (different
	// seed) on the other core of the CMP, sharing the L2 — the paper's
	// two-cores-per-L2 configuration.
	SharedCore bool // storemlpvet:novalidate (both states valid)
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.Insts <= 0 {
		return fmt.Errorf("sim: non-positive instruction count %d", s.Insts)
	}
	if s.Warm < 0 {
		return fmt.Errorf("sim: negative warmup %d", s.Warm)
	}
	return nil
}

// BuildSource constructs the instruction stream for the spec's memory
// model: the generator emits a TSO (PC) trace, and consistency.Rewrite
// turns it into the configured stream in one pass: under WC the lock
// idioms are rewritten to lwarx/stwcx/isync + lwsync exactly as the
// paper's lock-detection tool does; under SLE the lock acquires become
// plain loads and the releases vanish; under TM both vanish.
func BuildSource(w workload.Params, cfg uarch.Config, total int64) trace.Source {
	src := consistency.Rewrite(workload.NewGenerator(w), cfg.Model, cfg.SLE, cfg.TM)
	return trace.Limit(src, total)
}

// prepare derives the engine configuration and options from a
// validated spec.
func prepare(s Spec) (uarch.Config, []epoch.Option) {
	cfg := s.Config
	cfg.WarmInsts = s.Warm
	var opts []epoch.Option
	if !s.DisableTraffic && s.Config.Nodes > 1 && s.Workload.SnoopsPerKiloInst > 0 {
		opts = append(opts, epoch.WithTraffic(s.Workload.Traffic(), s.Workload.Seed+1))
	}
	if s.SharedCore {
		co := s.Workload
		co.Seed += 13
		// The co-runner is a separate process: disjoint address space.
		co.AddrOffset = 1 << 44
		opts = append(opts, epoch.WithSharedCore(workload.NewGenerator(co)))
	}
	return cfg, opts
}

// RunContext executes the simulation and returns the epoch statistics.
// The engine polls ctx and abandons the simulation once it is done,
// returning ctx's error. The run leases its engine from the process-wide
// free list: Reconfigure resets a recycled engine to an observationally
// fresh state, so results match a newly built engine bit for bit.
// When ctx carries a request span (obs.WithSpan) the run records its
// simulate span on that trace, the engine's detail spans when the trace
// records them, and its live progress counters.
func RunContext(ctx context.Context, s Spec) (*epoch.Stats, error) {
	return run(ctx, s, trace.Start)
}

// run is RunContext with the producer stage opened by start.
func run(ctx context.Context, s Spec, start startStage) (*epoch.Stats, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, opts := prepare(s)
	e := engines.get()
	// A failed Reconfigure (or a cancelled run) leaves mid-run state
	// behind, but the next Reconfigure discards it, so the engine goes
	// back to the free list on every path.
	defer engines.put(e)
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
	// handed to the next run.
	out := *st
	return &out, nil
}

// runLabel names a run the way the paper labels bars: workload plus
// machine configuration.
func runLabel(s Spec) string {
	return s.Workload.Name + " " + s.Config.Name()
}

// startStage opens a run's producer stage over its source: trace.Start
// applies the occupancy rule; tests pin either path with
// trace.StartPinned.
type startStage = func(trace.Source, *obs.ReqTrace, obs.SpanID) *trace.Stage

// simulate runs eng over the source setup returns as one observed
// engine execution. It opens the run's simulate span (recording arg)
// under the request span ctx carries before calling setup, so the span
// covers configuring the engine and building its source as well as the
// run, and attaches the trace to the engine with the span as the parent
// of the engine's detail spans. It records the run on the trace as
// planning total instructions, labelled by label (called only when a
// trace is watching: labels allocate), and detaches the trace from the
// engine before returning. The engine reads the source through
// the producer stage start opens, which may run it one batch ahead on
// a second goroutine and then records its decode span under the
// simulate span; the stage is stopped, and any producer joined, before
// simulate returns.
func simulate(ctx context.Context, eng *epoch.Engine, setup func() (trace.Source, error), start startStage, label func() string, total, arg int64) (*epoch.Stats, error) {
	rt, parent := obs.SpanFrom(ctx)
	sp := rt.StartSpan(obs.StageSimulate, parent)
	defer rt.EndSpan(sp, arg)
	src, err := setup()
	if err != nil {
		return nil, err
	}
	if rt != nil {
		rt.BeginRun(label(), total)
	}
	detail := rt
	if sp == obs.NoSpan || !rt.Detailed() {
		detail = nil
	}
	eng.SetObs(rt, sp)
	stage := start(src, detail, sp)
	defer stage.Stop()
	st, err := eng.RunContext(ctx, stage)
	eng.SetObs(nil, obs.NoSpan)
	rt.EndRun()
	return st, err
}
