// Command experiments regenerates the paper's evaluation: Tables 1-3,
// Figures 2-8 and the ablation sweeps, printing text tables whose rows
// and series mirror the paper's.
//
// Examples:
//
//	experiments                      # everything, full scale (several minutes)
//	experiments -run table1,fig2     # a subset
//	experiments -insts 500000        # quicker, noisier
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"storemlp/internal/experiments"
	"storemlp/internal/obs"
)

// stderr receives the -progress ticker and each experiment's wall
// time, keeping stdout a deterministic function of the flags; tests
// substitute a buffer.
var stderr io.Writer = os.Stderr

func main() {
	// A full harness run takes minutes; SIGINT cancels the sweep context
	// so every in-flight engine loop aborts and the process exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

type experiment struct {
	name string
	// run returns the rendered text plus named row sets for CSV export.
	run func(experiments.Config) (string, map[string]interface{}, error)
}

// table registers an experiment with one row set, exported as name.csv.
func table[T any](name string, rows func(experiments.Config) ([]T, error), render func([]T) string) experiment {
	return experiment{name, func(cfg experiments.Config) (string, map[string]interface{}, error) {
		r, err := rows(cfg)
		if err != nil {
			return "", nil, err
		}
		return render(r), map[string]interface{}{name: r}, nil
	}}
}

// registry lists every runnable experiment in presentation order.
var registry = []experiment{
	table("table1", experiments.Table1, experiments.RenderTable1),
	table("table2", experiments.Table2, experiments.RenderTable2),
	table("table3", experiments.Table3, experiments.RenderTable3),
	table("fig2", experiments.Figure2, experiments.RenderFigure2),
	table("fig3", experiments.Figure3, experiments.RenderFigure3),
	table("fig4", experiments.Figure4, experiments.RenderFigure4),
	table("fig5", experiments.Figure5, experiments.RenderFigure5),
	table("fig6", experiments.Figure6, experiments.RenderFigure6),
	table("fig7", experiments.Figure7, experiments.RenderFigure7),
	table("fig8", experiments.Figure8, experiments.RenderFigure8),
	table("summary", experiments.Summary, experiments.RenderSummary),
	{"ablations", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		r, err := experiments.RunAblations(cfg)
		if err != nil {
			return "", nil, err
		}
		groups := map[string]interface{}{
			"ablation_coalescing":    r.Coalescing,
			"ablation_bandwidth":     r.Bandwidth,
			"ablation_scout_reach":   r.ScoutReach,
			"ablation_lock_elision":  r.LockElision,
			"ablation_shared_l2":     r.SharedL2,
			"ablation_smac_geometry": r.SMACGeometry,
		}
		return experiments.RenderAblations(r), groups, nil
	}},
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runList = fs.String("run", "all",
			"comma-separated: table1,table2,table3,fig2..fig8,summary,ablations or all")
		insts    = fs.Int64("insts", 2_000_000, "measured instructions per run")
		warm     = fs.Int64("warm", 1_000_000, "warmup instructions per run")
		seed     = fs.Int64("seed", 1, "workload seed")
		parallel = fs.Int("parallel", 0, "concurrent runs (0 = NumCPU)")
		csvDir   = fs.String("csv", "", "also write raw results as CSV files into this directory")
		progress = fs.Bool("progress", false, "live one-line progress ticker on stderr (active runs, insts/s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var rt *obs.ReqTrace // nil without -progress: StartTicker is then a no-op
	if *progress {
		// Every run inherits Config.Ctx, so one root trace (no room for
		// spans past the root) sums the harness's live counters.
		rt = obs.NewReqTrace("experiments", 1, 0)
		ctx = obs.WithSpan(ctx, rt, rt.Root())
	}

	cfg := experiments.Config{Seed: *seed, Insts: *insts, Warm: *warm, Parallelism: *parallel, Ctx: ctx}

	want := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]

	ranAny := false
	for _, e := range registry {
		if !all && !want[e.name] {
			continue
		}
		ranAny = true
		start := time.Now()
		// Stopping the ticker blanks its line before the wall-time line.
		stopTicker := obs.StartTicker(stderr, rt, 250*time.Millisecond)
		out, groups, err := e.run(cfg)
		stopTicker()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprint(stdout, out, "\n")
		fmt.Fprintf(stderr, "[%s took %.1fs]\n", e.name, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSVGroups(*csvDir, groups); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
	}
	if !ranAny {
		return fmt.Errorf("nothing selected by -run=%s", *runList)
	}
	return nil
}

// writeCSVGroups writes each named row set to dir/<name>.csv.
func writeCSVGroups(dir string, groups map[string]interface{}) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, rows := range groups {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		err = experiments.WriteCSV(f, rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s.csv: %w", name, err)
		}
	}
	return nil
}
