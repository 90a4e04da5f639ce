// Package storemlp reproduces "Store Memory-Level Parallelism
// Optimizations for Commercial Applications" (Chou, Spracklen, Abraham —
// MICRO 2005).
//
// The package is a Go implementation of MLPsim, the paper's epoch
// memory-level-parallelism simulator, together with every system it
// depends on: synthetic commercial workload generators calibrated to the
// paper's Table 1 (database/OLTP, TPC-W, SPECjbb2000, SPECweb99), a
// cache hierarchy with MESI states, cross-chip coherence traffic, the
// SPARC-TSO and PowerPC memory consistency models with the paper's
// lock-detection/rewriting tool, and the store optimizations the paper
// proposes and evaluates: store coalescing, store prefetching (at retire
// and at execute), the Store Miss Accelerator (SMAC), Speculative Lock
// Elision, prefetch past serializing instructions, and Hardware Scout
// including the HWS2 store-stall trigger.
//
// Quick start:
//
//	stats, err := storemlp.Run(storemlp.RunSpec{
//		Workload: storemlp.Database(1),
//		Config:   storemlp.DefaultConfig(),
//		Insts:    2_000_000,
//		Warm:     1_000_000,
//	})
//	fmt.Printf("EPI = %.2f epochs/1000 insts\n", stats.EPI())
//
// The experiment harness (Table1 .. Figure8, plus ablations) regenerates
// every table and figure of the paper's evaluation; see EXPERIMENTS.md
// for measured-vs-paper results.
package storemlp

import (
	"context"
	"fmt"
	"io"

	"storemlp/internal/consistency"
	"storemlp/internal/cyclesim"
	"storemlp/internal/digest"
	"storemlp/internal/epoch"
	"storemlp/internal/experiments"
	"storemlp/internal/onchip"
	"storemlp/internal/sim"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Workload calibrates a synthetic commercial workload generator.
type Workload = workload.Params

// Config is the simulated machine description (§4.3 of the paper plus
// every optimization knob).
type Config = uarch.Config

// Stats is the output of one simulation run: EPI, MLP, store MLP,
// termination-condition and MLP distributions, and substrate counters.
type Stats = epoch.Stats

// Memory consistency models.
const (
	// PC is processor consistency (SPARC TSO).
	PC = consistency.PC
	// WC is weak consistency (PowerPC).
	WC = consistency.WC
)

// PrefetchMode selects when (if at all) a store's ownership request is
// prefetched ahead of its store-queue-head turn.
type PrefetchMode = uarch.PrefetchMode

// Store prefetching modes (§3.3.2).
const (
	Sp0 = uarch.Sp0 // no store prefetching
	Sp1 = uarch.Sp1 // prefetch at retire
	Sp2 = uarch.Sp2 // prefetch at execute
)

// Hardware Scout modes (§3.3.5, §5.4).
const (
	NoHWS = uarch.NoHWS
	HWS0  = uarch.HWS0
	HWS1  = uarch.HWS1
	HWS2  = uarch.HWS2 // + scout on store-stall: the paper's proposal
)

// Workload constructors (the paper's four benchmarks).
var (
	Database = workload.Database
	TPCW     = workload.TPCW
	SPECjbb  = workload.SPECjbb
	SPECweb  = workload.SPECweb
)

// AllWorkloads returns the four workloads in the paper's order.
func AllWorkloads(seed int64) []Workload { return workload.All(seed) }

// WorkloadByName resolves "database", "tpcw", "specjbb" or "specweb".
func WorkloadByName(name string, seed int64) (Workload, error) {
	return workload.ByName(name, seed)
}

// DefaultConfig returns the paper's default processor configuration:
// 64-entry ROB, 16-entry store buffer, 32-entry store queue, store
// prefetch at retire, 8-byte coalescing, processor consistency, 500
// cycle miss penalty, 2 MB shared L2.
func DefaultConfig() Config { return uarch.Default() }

// RunSpec describes one simulation run.
type RunSpec struct {
	Workload Workload
	Config   Config
	// Insts is the number of measured instructions; Warm the cache
	// warmup prefix excluded from statistics.
	Insts int64
	Warm  int64
	// DisableTraffic suppresses remote-node coherence snoops.
	DisableTraffic bool
	// SharedCore co-schedules a second copy of the workload on the other
	// core of the CMP, sharing the L2 (the paper's two-cores-per-L2
	// configuration); it exerts cache pressure only.
	SharedCore bool
}

// Run executes one simulation: the workload generator's TSO trace is
// rewritten for WC and/or SLE as the configuration requires, then driven
// through the epoch MLP engine.
func Run(s RunSpec) (*Stats, error) {
	return RunContext(context.Background(), s)
}

// RunContext is Run with cancellation: the engine polls ctx every few
// thousand instructions and abandons the simulation — returning ctx's
// error — once the context is done. Long sweeps become interruptible
// and service requests can carry deadlines.
func RunContext(ctx context.Context, s RunSpec) (*Stats, error) {
	return sim.RunContext(ctx, sim.Spec{
		Workload:       s.Workload,
		Uarch:          s.Config,
		Insts:          s.Insts,
		Warm:           s.Warm,
		DisableTraffic: s.DisableTraffic,
		SharedCore:     s.SharedCore,
	})
}

// ConfigDigest returns a stable hex digest canonically identifying the
// run: the workload calibration (including its seed), the full machine
// configuration, and the instruction budget. Two RunSpecs digest
// equally iff they describe the same simulation, independent of struct
// field declaration order or map iteration order, so the digest is a
// sound coalescing/cache key for the serving layer (any single-field
// change yields a different digest).
func ConfigDigest(s RunSpec) string {
	return digest.Sum(map[string]interface{}{
		"workload":       s.Workload,
		"config":         s.Config,
		"insts":          s.Insts,
		"warm":           s.Warm,
		"disableTraffic": s.DisableTraffic,
		"sharedCore":     s.SharedCore,
	})
}

// WriteTrace generates n instructions of the workload — transformed for
// the configuration's consistency model and SLE setting — into w as a
// columnar trace. It returns the number of instructions written.
func WriteTrace(w io.Writer, wk Workload, cfg Config, n int64) (int64, error) {
	if err := wk.Validate(); err != nil {
		return 0, err
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("storemlp: non-positive trace length %d", n)
	}
	return trace.WriteAll(w, sim.BuildSource(wk, cfg, n))
}

// TraceFormat names an on-disk trace encoding for WriteTraceFormat.
//
// Deprecated: traces have one format; use WriteTrace.
type TraceFormat int

// TraceColumnar is the one on-disk trace format. It keeps its old
// value, so a zero TraceFormat (once the legacy format) is rejected.
//
// Deprecated: traces have one format; use WriteTrace.
const TraceColumnar TraceFormat = 1

// WriteTraceFormat is WriteTrace for callers that still name the
// format; any value other than TraceColumnar is an error.
//
// Deprecated: use WriteTrace.
func WriteTraceFormat(w io.Writer, wk Workload, cfg Config, n int64, f TraceFormat) (int64, error) {
	if f != TraceColumnar {
		return 0, fmt.Errorf("storemlp: unknown trace format %d (only TraceColumnar remains)", int(f))
	}
	return WriteTrace(w, wk, cfg, n)
}

// RunTrace drives a trace previously written by WriteTrace or tracegen
// through the epoch engine. The trace is used as-is: no consistency
// rewriting is applied (use cmd/lockdetect or WriteTrace for that). A
// trace in the removed legacy format is refused with an error that says
// to regenerate it.
func RunTrace(r io.Reader, cfg Config, warm int64) (*Stats, error) {
	return RunTraceContext(context.Background(), r, cfg, warm)
}

// RunTraceContext is RunTrace with cancellation. Like RunContext, it
// records its simulate span and the engine's detail spans when ctx
// carries a request span (obs.WithSpan), and publishes live progress
// when ctx carries a board (obs.NewContext); the planned total is
// unknown for a streamed trace, so progress reports instructions only.
func RunTraceContext(ctx context.Context, r io.Reader, cfg Config, warm int64) (*Stats, error) {
	tr, err := colv1.NewReader(r)
	if err != nil {
		return nil, err
	}
	return runTraceSource(ctx, tr, cfg, warm)
}

// RunTraceFile runs the trace stored at path, streaming the file block
// by block as the engine consumes it; the instruction total is read
// from the file's footer first, so progress knows the planned total. Every trace entry point decodes one 4096-instruction
// batch ahead of the engine on a second goroutine when GOMAXPROCS is
// above 1 (inline otherwise), with bit-identical statistics; the
// decoder has stopped before the call returns and the file is closed.
func RunTraceFile(path string, cfg Config, warm int64) (*Stats, error) {
	return RunTraceFileContext(context.Background(), path, cfg, warm)
}

// RunTraceFileContext is RunTraceFile with cancellation.
func RunTraceFileContext(ctx context.Context, path string, cfg Config, warm int64) (*Stats, error) {
	tr, closer, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return runTraceSource(ctx, tr, cfg, warm)
}

// tracePool recycles engines across the package-level trace entry
// points: repeated RunTrace calls (replay sweeps, benchmarks) stop
// paying the cache-hierarchy and ring construction cost per trace.
var tracePool = sim.NewPool()

// runTraceSource is the shared tail of the trace-driven entry points:
// check an engine out of the pool, attach observability, drive the
// decoded stream through it, and surface any decode error the source
// hit.
func runTraceSource(ctx context.Context, tr trace.FileSource, cfg Config, warm int64) (*Stats, error) {
	return tracePool.RunTraceSource(ctx, tr, cfg, warm)
}

// OverallCPI combines an on-chip CPI, its overlap fraction, and a run's
// epochs-per-instruction into overall CPI (§3.4).
func OverallCPI(cpiOnChip, overlap float64, s *Stats, missPenalty int) float64 {
	if s.Insts == 0 {
		return 0
	}
	return onchip.OverallCPI(cpiOnChip, overlap, float64(s.Epochs)/float64(s.Insts), missPenalty)
}

// CycleStats is the output of the simplified cycle-level validator.
type CycleStats = cyclesim.Stats

// RunCycleLevel drives the same workload through the simplified
// cycle-level simulator (internal/cyclesim) that cross-validates the
// epoch engine, the way the paper validates MLPsim against its
// cycle-accurate simulator. Its Overlap() output is the §3.4 Overlap
// term for translating EPI into overall CPI.
func RunCycleLevel(s RunSpec) (*CycleStats, error) {
	return RunCycleLevelContext(context.Background(), s)
}

// RunCycleLevelContext is RunCycleLevel with cancellation.
func RunCycleLevelContext(ctx context.Context, s RunSpec) (*CycleStats, error) {
	cfg := s.Config
	cfg.WarmInsts = s.Warm
	cs, err := cyclesim.New(cfg)
	if err != nil {
		return nil, err
	}
	return cs.RunContext(ctx, sim.BuildSource(s.Workload, cfg, s.Warm+s.Insts))
}

// ExperimentConfig sizes the table/figure harness.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the full-scale harness configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// The experiment harness: one function per table and figure of the
// paper's evaluation, plus ablations. See internal/experiments for the
// row types.
var (
	Table1               = experiments.Table1
	Table2               = experiments.Table2
	Table3               = experiments.Table3
	Figure2              = experiments.Figure2
	Figure3              = experiments.Figure3
	Figure4              = experiments.Figure4
	Figure5              = experiments.Figure5
	Figure6              = experiments.Figure6
	Figure7              = experiments.Figure7
	Figure8              = experiments.Figure8
	AblationCoalescing   = experiments.AblationCoalescing
	AblationBandwidth    = experiments.AblationBandwidth
	AblationScoutReach   = experiments.AblationScoutReach
	AblationLockElision  = experiments.AblationLockElision
	AblationSharedL2     = experiments.AblationSharedL2
	AblationSMACGeometry = experiments.AblationSMACGeometry
	RunAblations         = experiments.RunAblations
)
