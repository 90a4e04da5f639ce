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
	// Uarch is the machine configuration. Spec.Run sets its WarmInsts
	// from Warm below.
	Uarch uarch.Config
	// Insts is the number of measured instructions (after warmup).
	Insts int64
	// Warm is the cache warmup prefix, excluded from statistics.
	Warm int64
	// DisableTraffic turns off remote coherence snoops even when
	// Uarch.Nodes > 1 (single-node behaviour).
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
	if err := s.Uarch.Validate(); err != nil {
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
// model: the generator emits a TSO (PC) trace; under WC the lock idioms
// are rewritten to lwarx/stwcx/isync + lwsync exactly as the paper's
// lock-detection tool does; under SLE the lock acquires become plain
// loads and the releases vanish.
func BuildSource(w workload.Params, cfg uarch.Config, total int64) trace.Source {
	var src trace.Source = workload.NewGenerator(w)
	if cfg.Model == consistency.WC {
		src = consistency.RewriteWC(src)
	}
	if cfg.SLE {
		src = consistency.ElideLocks(src)
	}
	if cfg.TM {
		src = consistency.ApplyTM(src)
	}
	return trace.Limit(src, total)
}

// Run executes the simulation and returns the epoch statistics.
func Run(s Spec) (*epoch.Stats, error) {
	return RunContext(context.Background(), s)
}

// prepare derives the engine configuration and options from a
// validated spec; it is shared by the one-shot RunContext and the
// engine Pool.
func prepare(s Spec) (uarch.Config, []epoch.Option) {
	cfg := s.Uarch
	cfg.WarmInsts = s.Warm
	var opts []epoch.Option
	if !s.DisableTraffic && s.Uarch.Nodes > 1 && s.Workload.SnoopsPerKiloInst > 0 {
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

// RunContext is Run with cancellation: the epoch engine polls ctx and
// abandons the simulation once it is done, returning ctx's error.
// When ctx carries a request span (obs.WithSpan) the run records its
// simulate span and the engine's detail spans on that trace, and when
// it carries a board (obs.NewContext) the run publishes live progress
// snapshots to it.
func RunContext(ctx context.Context, s Spec) (*epoch.Stats, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, opts := prepare(s)
	eng := new(epoch.Engine)
	setup := func() (trace.Source, error) {
		if err := eng.Reconfigure(cfg, opts...); err != nil {
			return nil, err
		}
		return BuildSource(s.Workload, cfg, s.Warm+s.Insts), nil
	}
	return simulate(ctx, eng, setup, nil, func() string { return runLabel(s) }, s.Warm+s.Insts, s.Insts)
}

// runLabel names a run the way the paper labels bars: workload plus
// machine configuration.
func runLabel(s Spec) string {
	return s.Workload.Name + " " + s.Uarch.Name()
}

// simulate runs eng over the source setup returns as one observed
// engine execution. It opens the run's simulate span (recording arg)
// under the request span ctx carries before calling setup, so the span
// covers configuring the engine and building its source as well as the
// run, and attaches it to the engine as the parent of the engine's
// detail spans when the trace records them; it registers a progress
// entry planning total instructions on ctx's board, labelled by label
// (called only when a board is watching: labels allocate). Both sinks
// are detached before returning. A non-nil ahead decodes the source one
// batch ahead of the engine and records its decode span under the
// simulate span; its producer is joined before simulate returns.
func simulate(ctx context.Context, eng *epoch.Engine, setup func() (trace.Source, error), ahead *decodeAhead, label func() string, total, arg int64) (*epoch.Stats, error) {
	rt, parent := obs.SpanFrom(ctx)
	sp := rt.StartSpan(obs.StageSimulate, parent)
	defer rt.EndSpan(sp, arg)
	src, err := setup()
	if err != nil {
		return nil, err
	}
	detail := rt
	if sp == obs.NoSpan || !rt.Detailed() {
		detail = nil
	}
	var p *obs.Progress
	board := obs.BoardFrom(ctx)
	if board != nil {
		p = board.Start(label(), total)
	}
	eng.SetObs(detail, sp, p)
	if ahead != nil {
		ahead.start(src, detail, sp)
		defer ahead.stop()
		src = ahead
	}
	st, err := eng.RunContext(ctx, src)
	eng.SetObs(nil, obs.NoSpan, nil)
	board.Finish(p)
	return st, err
}
