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
	// Parallel splits the run into that many contiguous segments
	// simulated concurrently on per-core engines and merged with
	// epoch.Stats.Merge; 0 or 1 runs serially. Each segment after the
	// first re-simulates an unmeasured warm-up overlap prefix to
	// reconstruct machine state at its boundary, so parallel results
	// are approximate (see WarmupOverlap for the tolerance contract) —
	// which is why the knob is digest-visible: a parallel run must not
	// share a cache key with the serial run it approximates.
	Parallel int
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
	if s.Parallel < 0 {
		return fmt.Errorf("sim: negative segment count %d", s.Parallel)
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
// engine Pool. It is segmentOptions at stream position zero — the
// whole-run case.
func prepare(s Spec) (uarch.Config, []epoch.Option) {
	cfg := s.Uarch
	cfg.WarmInsts = s.Warm
	// At stream position 0 no fast-forward runs, so no error or
	// cancellation is possible.
	opts, _ := segmentOptions(context.Background(), s, 0)
	return cfg, opts
}

// segmentOptions builds the engine options for a run (or run segment)
// whose instruction stream begins at position start: coherence traffic
// is fast-forwarded so the snoop sequence aligns with the serial run,
// and the shared-core co-runner's generator is advanced past the same
// prefix. start 0 reproduces the serial options exactly.
func segmentOptions(ctx context.Context, s Spec, start int64) ([]epoch.Option, error) {
	var opts []epoch.Option
	if !s.DisableTraffic && s.Uarch.Nodes > 1 && s.Workload.SnoopsPerKiloInst > 0 {
		opts = append(opts, epoch.WithTrafficSkip(s.Workload.Traffic(), s.Workload.Seed+1, start))
	}
	if s.SharedCore {
		co := s.Workload
		co.Seed += 13
		// The co-runner is a separate process: disjoint address space.
		co.AddrOffset = 1 << 44
		var bg trace.Source = workload.NewGenerator(co)
		if start > 0 {
			// The co-runner advances one instruction per primary step, so
			// a segment starting at stream position start has consumed
			// exactly start co-runner instructions.
			if err := discard(ctx, bg, start); err != nil {
				return nil, err
			}
		}
		opts = append(opts, epoch.WithSharedCore(bg))
	}
	return opts, nil
}

// RunContext is Run with cancellation: the epoch engine polls ctx and
// abandons the simulation once it is done, returning ctx's error.
// When ctx carries a request span (obs.WithSpan) the run records its
// simulate span and the engine's detail spans on that trace, and when
// it carries a board (obs.NewContext) the run publishes live progress
// snapshots to it. A Spec with Parallel > 1 fans out across segment
// engines (see parallel.go).
func RunContext(ctx context.Context, s Spec) (*epoch.Stats, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if Segments(s) > 1 {
		return NewPool().runParallel(ctx, s, WarmupOverlap(s.Uarch))
	}
	cfg, opts := prepare(s)
	eng, err := epoch.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	src := BuildSource(s.Workload, cfg, s.Warm+s.Insts)
	return simulate(ctx, eng, src, nil, func() string { return runLabel(s) }, s.Warm+s.Insts, s.Insts)
}

// runLabel names a run the way the paper labels bars: workload plus
// machine configuration.
func runLabel(s Spec) string {
	return s.Workload.Name + " " + s.Uarch.Name()
}

// simulate runs eng over src as one observed engine execution. It opens
// the run's simulate span (recording arg) under the request span ctx
// carries and attaches it to the engine as the parent of the engine's
// detail spans when the trace records them; it registers a progress
// entry planning total instructions on ctx's board, labelled by label
// (called only when a board is watching: labels allocate). Both sinks
// are detached before returning. A non-nil ahead decodes src one batch
// ahead of the engine and records its decode span under the simulate
// span; its producer is joined before simulate returns.
func simulate(ctx context.Context, eng *epoch.Engine, src trace.Source, ahead *decodeAhead, label func() string, total, arg int64) (*epoch.Stats, error) {
	rt, parent := obs.SpanFrom(ctx)
	sp := rt.StartSpan(obs.StageSimulate, parent)
	defer rt.EndSpan(sp, arg)
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
