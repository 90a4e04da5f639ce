// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Tables 1-3 and Figures 2-8, plus ablations of design
// choices called out in DESIGN.md. Each function returns structured rows
// so that cmd/experiments can render them and the benchmark harness can
// time them.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"storemlp/internal/epoch"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Config controls an experiment sweep.
type Config struct {
	// Seed parameterizes the workload generators and coherence traffic.
	Seed int64
	// Insts is the measured instruction count per run; Warm the cache
	// warmup prefix. The SMAC experiments (Figures 5 and 6) scale these
	// by their own per-workload factors (see smacSpec).
	Insts int64
	Warm  int64
	// Parallelism bounds concurrent simulation runs (default: NumCPU).
	Parallelism int
	// Workloads defaults to the paper's four.
	Workloads []workload.Params
	// Ctx cancels the sweep mid-flight (nil = context.Background()).
	// cmd/experiments wires a SIGINT-bound context here so a multi-minute
	// harness run dies promptly on Ctrl-C.
	Ctx context.Context
}

// DefaultConfig returns a configuration sized for the full harness:
// 2M measured instructions per run after 1M of warmup.
func DefaultConfig() Config {
	return Config{Seed: 1, Insts: 2_000_000, Warm: 1_000_000}
}

func (c Config) norm() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Insts <= 0 {
		c.Insts = 2_000_000
	}
	if c.Warm < 0 {
		c.Warm = 0
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.All(c.Seed)
	}
	return c
}

// ctx returns the sweep's context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// sweep is the one runner behind every engine-running table, figure and
// ablation. It normalizes c, lists each workload's cells in c.Workloads
// order (so rows come out workload by workload, whatever the
// parallelism), runs spec(c, w, cell) for every cell under c's context
// and hands the run's statistics to record.
func sweep[T any](c Config, cells func(w workload.Params) []T,
	spec func(c Config, w workload.Params, cell *T) sim.Spec,
	record func(cell *T, s *epoch.Stats)) ([]T, error) {
	c = c.norm()
	var rows []T
	var ws []workload.Params // ws[i] is rows[i]'s workload
	for _, w := range c.Workloads {
		for _, cell := range cells(w) {
			rows = append(rows, cell)
			ws = append(ws, w)
		}
	}
	err := parMap(c.ctx(), len(rows), c.Parallelism, func(i int) error {
		s, err := sim.RunContext(c.ctx(), spec(c, ws[i], &rows[i]))
		if err != nil {
			return err
		}
		record(&rows[i], s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// spec is the standard run of w under cfg: c.Insts measured
// instructions after c.Warm of warmup.
func (c Config) spec(w workload.Params, cfg uarch.Config) sim.Spec {
	return sim.Spec{Workload: w, Config: cfg, Insts: c.Insts, Warm: c.Warm}
}

// defaultSpec is the standard run of w under the default configuration.
func defaultSpec[T any](c Config, w workload.Params, _ *T) sim.Spec {
	return c.spec(w, uarch.Default())
}

// smacSpec is the scaled run of the SMAC experiments (Figures 5 and 6,
// the bandwidth and SMAC-geometry ablations): smacScale(w), with the
// caller's Insts taken as a scale factor relative to the default 2M —
// 4M measured after 7M of warmup at full scale.
func (c Config) smacSpec(w workload.Params, cfg uarch.Config) sim.Spec {
	scale := float64(c.Insts) / 2_000_000
	insts := int64(4_000_000 * scale)
	if insts < 1000 {
		insts = 1000
	}
	return sim.Spec{Workload: smacScale(w), Config: cfg, Insts: insts, Warm: int64(7_000_000 * scale)}
}

// parMap runs fn(0..n-1) with bounded parallelism, returning the first
// error. A cancelled ctx stops launching new work; already-running fns
// are expected to observe the same ctx themselves.
func parMap(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if parallelism < 1 {
		parallelism = 1
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("experiments: run %d: %w", i, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
}
