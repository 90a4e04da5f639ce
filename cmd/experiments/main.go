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

// stderr receives the -progress ticker; tests substitute a buffer.
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

// registry lists every runnable experiment in presentation order.
var registry = []experiment{
	{"table1", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		rows, err := experiments.Table1(cfg)
		return experiments.RenderTable1(rows), map[string]interface{}{"table1": rows}, err
	}},
	{"table2", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		rows, err := experiments.Table2(cfg)
		return experiments.RenderTable2(rows), map[string]interface{}{"table2": rows}, err
	}},
	{"table3", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		rows, err := experiments.Table3(cfg)
		return experiments.RenderTable3(rows), map[string]interface{}{"table3": rows}, err
	}},
	{"fig2", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		cells, err := experiments.Figure2(cfg)
		return experiments.RenderFigure2(cells), map[string]interface{}{"fig2": cells}, err
	}},
	{"fig3", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		rows, err := experiments.Figure3(cfg)
		return experiments.RenderFigure3(rows), map[string]interface{}{"fig3": rows}, err
	}},
	{"fig4", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		rows, err := experiments.Figure4(cfg)
		return experiments.RenderFigure4(rows), map[string]interface{}{"fig4": rows}, err
	}},
	{"fig5", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		cells, err := experiments.Figure5(cfg)
		return experiments.RenderFigure5(cells), map[string]interface{}{"fig5": cells}, err
	}},
	{"fig6", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		cells, err := experiments.Figure6(cfg)
		return experiments.RenderFigure6(cells), map[string]interface{}{"fig6": cells}, err
	}},
	{"fig7", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		cells, err := experiments.Figure7(cfg)
		return experiments.RenderFigure7(cells), map[string]interface{}{"fig7": cells}, err
	}},
	{"fig8", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		cells, err := experiments.Figure8(cfg)
		return experiments.RenderFigure8(cells), map[string]interface{}{"fig8": cells}, err
	}},
	{"summary", func(cfg experiments.Config) (string, map[string]interface{}, error) {
		rows, err := experiments.Summary(cfg)
		return experiments.RenderSummary(rows), map[string]interface{}{"summary": rows}, err
	}},
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

	if *progress {
		// Every run inherits Config.Ctx, so one root trace (no room for
		// spans past the root) sums the harness's live counters.
		rt := obs.NewReqTrace("experiments", 1, 0)
		ctx = obs.WithSpan(ctx, rt, rt.Root())
		defer obs.StartTicker(stderr, rt, 250*time.Millisecond)()
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
		out, groups, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprint(stdout, out)
		fmt.Fprintf(stdout, "[%s took %.1fs]\n\n", e.name, time.Since(start).Seconds())
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
