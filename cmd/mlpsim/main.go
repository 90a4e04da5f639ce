// Command mlpsim runs one epoch-MLP simulation — the equivalent of one
// MLPsim invocation in the paper — and prints EPI, MLP, store MLP, the
// window-termination mix, and the off-chip CPI translation.
//
// Examples:
//
//	mlpsim -workload tpcw -insts 2000000 -warm 1000000
//	mlpsim -workload specjbb -model wc -prefetch 2 -sq 64
//	mlpsim -workload database -hws 2
//	mlpsim -workload specweb -smac 32768 -nodes 4
//	mlpsim -trace db.trace -warm 500000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"storemlp"
	"storemlp/internal/consistency"
	"storemlp/internal/obs"
	"storemlp/internal/uarch"
)

// stderr receives the -progress ticker; tests substitute a buffer.
var stderr io.Writer = os.Stderr

func main() {
	// Ctrl-C cancels the simulation context: the engine's instruction
	// loop observes it and the process exits cleanly instead of being
	// killed mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mlpsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "mlpsim: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mlpsim", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "database", "workload: database, tpcw, specjbb, specweb")
		traceFile    = fs.String("trace", "", "run a trace file written by tracegen instead of a generator")
		insts        = fs.Int64("insts", 2_000_000, "measured instructions (generator runs; a trace is measured to its end)")
		warm         = fs.Int64("warm", 1_000_000, "cache warmup instructions (excluded from stats)")
		seed         = fs.Int64("seed", 1, "workload generator seed")
		model        = fs.String("model", "pc", "memory consistency model: pc (TSO) or wc (PowerPC)")
		prefetch     = fs.Int("prefetch", 1, "store prefetching: 0=none, 1=at retire, 2=at execute")
		sq           = fs.Int("sq", 32, "store queue entries (0 = unbounded)")
		sb           = fs.Int("sb", 16, "store buffer entries")
		rob          = fs.Int("rob", 64, "reorder buffer entries")
		coalesce     = fs.Int("coalesce", 8, "store coalescing granularity in bytes (0 = off)")
		sle          = fs.Bool("sle", false, "speculative lock elision")
		tm           = fs.Bool("tm", false, "transactional memory (alternative to -sle)")
		pps          = fs.Bool("pps", false, "prefetch past serializing instructions")
		hws          = fs.Int("hws", -1, "hardware scout: -1=off, 0=HWS0, 1=HWS1, 2=HWS2")
		smac         = fs.Int("smac", 0, "store miss accelerator entries (0 = none)")
		nodes        = fs.Int("nodes", 2, "multiprocessor nodes (coherence traffic)")
		penalty      = fs.Int("penalty", 500, "off-chip miss penalty in cycles")
		perfect      = fs.Bool("perfect", false, "stores never stall (perfect-stores baseline)")
		cycle        = fs.Bool("cycle", false, "also run the cycle-level validator and report overlap/overall CPI")
		progress     = fs.Bool("progress", false, "live one-line progress ticker on stderr (insts, insts/s, running MLP)")
		verbose      = fs.Bool("v", false, "print the full statistics dump")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile != "" {
		// A trace fixes the stream and its length; the generator flags
		// would be silently ignored.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "insts", "workload", "seed":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s cannot be combined with -trace: the trace fixes the stream (set its length with tracegen -n)",
				strings.Join(ignored, ", "))
		}
	}

	if *progress {
		// The run adds its live counters to a root trace with no room
		// for spans past the root; the ticker renders them on stderr.
		rt := obs.NewReqTrace("mlpsim", 1, 0)
		ctx = obs.WithSpan(ctx, rt, rt.Root())
		defer obs.StartTicker(stderr, rt, 250*time.Millisecond)()
	}

	cfg := storemlp.DefaultConfig()
	cfg.StoreQueue = *sq
	cfg.StoreBuffer = *sb
	cfg.ROB = *rob
	cfg.CoalesceBytes = *coalesce
	cfg.SLE = *sle
	cfg.TM = *tm
	cfg.PrefetchPastSerializing = *pps
	cfg.SMACEntries = *smac
	cfg.Nodes = *nodes
	cfg.MissPenalty = *penalty
	cfg.PerfectStores = *perfect
	var err error
	if cfg.Model, err = consistency.ParseModel(*model); err != nil {
		return err
	}
	if cfg.StorePrefetch, err = uarch.ParsePrefetchMode(*prefetch); err != nil {
		return err
	}
	if cfg.HWS, err = uarch.ParseHWSMode(*hws); err != nil {
		return err
	}

	var stats *storemlp.Stats
	var wk storemlp.Workload
	haveWorkload := false
	if *traceFile != "" {
		// The trace file is streamed block by block, so even huge
		// traces need no full-file read; every instruction after the
		// warmup is measured.
		stats, err = storemlp.RunTraceFileContext(ctx, *traceFile, cfg, *warm)
		if err != nil {
			return fmt.Errorf("running trace: %w", err)
		}
	} else {
		w, err := storemlp.WorkloadByName(strings.ToLower(*workloadName), *seed)
		if err != nil {
			return err
		}
		wk, haveWorkload = w, true
		stats, err = storemlp.RunContext(ctx, storemlp.RunSpec{
			Workload: w, Config: cfg, Insts: *insts, Warm: *warm,
		})
		if err != nil {
			return fmt.Errorf("running simulation: %w", err)
		}
	}

	fmt.Fprintf(stdout, "config: %s  penalty=%d\n", cfg.Name(), cfg.MissPenalty)
	fmt.Fprintf(stdout, "EPI          %8.3f epochs / 1000 insts\n", stats.EPI())
	fmt.Fprintf(stdout, "MLP          %8.3f\n", stats.MLP())
	fmt.Fprintf(stdout, "store MLP    %8.3f\n", stats.StoreMLP())
	fmt.Fprintf(stdout, "off-chip CPI %8.3f\n", stats.OffChipCPI(cfg.MissPenalty))
	fmt.Fprintf(stdout, "overlapped store fraction %.3f\n", stats.OverlappedStoreFraction())
	if *cycle {
		if !haveWorkload {
			return fmt.Errorf("-cycle requires a generated workload (not -trace)")
		}
		cyc, err := storemlp.RunCycleLevelContext(ctx, storemlp.RunSpec{
			Workload: wk, Config: cfg, Insts: *insts, Warm: *warm,
		})
		if err != nil {
			return fmt.Errorf("cycle-level run: %w", err)
		}
		fmt.Fprintf(stdout, "cycle-level validator: EPI=%.3f MLP=%.3f CPI=%.3f overlap=%.3f\n",
			cyc.EPI(), cyc.MLP(), cyc.CPI(), cyc.Overlap())
		fmt.Fprintf(stdout, "  epoch-vs-cycle EPI ratio: %.2f\n", stats.EPI()/cyc.EPI())
	}
	if *verbose {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.String())
	}
	return nil
}
