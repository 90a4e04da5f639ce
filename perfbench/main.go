// Command perfbench is the repository's benchmark. It runs one workload
// — sweep, replay or serve — for a fixed time, checks every simulated
// result, and prints the end-to-end metrics; with -trace 1 it instead
// runs the traced mode and prints the per-layer ledger. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. README.md in this directory documents the workloads and
// metrics; run.sh builds the benchmark from source and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Metric names, in print order. Every run prints all names of its mode.
var (
	endToEndNames = []string{"setup_s", "minsts_per_s", "p50_ms", "p99_ms", "goodput_rps", "peak_rss_mb"}
	layerNames    = []string{
		"workload.ns_per_inst", "consistency.ns_per_inst",
		"colv1.ns_per_inst", "colv1.bytes_per_inst",
		"cache.ns_per_access", "cache.accesses_per_inst", "cache.offchip_per_kinst",
		"smac.probes_per_kinst", "smac.hit_ratio", "coherence.snoops_per_kinst",
		"epoch.ns_per_inst", "epoch.self_ns_per_inst", "epoch.epi", "sim.new_ms",
		"server.parse_ms", "server.digest_ms", "server.cache_probe_ms", "server.render_ms",
		"server.coalesce_wait_ms", "server.pool_wait_ms", "server.simulate_ms",
		"server.transport_ms", "server.hit_ratio", "server.coalesced_ratio", "server.executed",
		"loadgen.late_p99_ms", "unattributed_share", "trace_overhead",
	}
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// outDir, relative to the repository root the benchmark runs from,
// holds scratch files, spans and result records.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// env is what a workload runs with.
type env struct {
	seed     int64
	window   time.Duration // the timed window
	traced   bool
	outDir   string // scratch and result files, inside the checkout
	tmp      string // this run's scratch area, removed at exit
	childBin string // the service child
	chk      *checker
	tr       *tracer // records spans only in the traced mode
	rep      *report
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "sweep, replay or serve")
		seed     = fs.Int64("seed", goldenSeed, "workload seed (>= 1); only seed 1 has recorded expected outputs")
		seconds  = fs.Float64("seconds", 10, "length of the timed window")
		traceOn  = fs.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
		record   = fs.String("record", "", "simulate the golden seed's expected outputs in process, write them to this file, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed < 1 {
		return fmt.Errorf("-seed %d: want >= 1", *seed)
	}
	if *seconds <= 0 || *traceOn < 0 || *traceOn > 1 {
		return fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *record != "" {
		return recordGolden(ctx, *record, window)
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	e := &env{
		seed:     *seed,
		window:   window,
		traced:   *traceOn == 1,
		outDir:   outDir,
		tmp:      filepath.Join(outDir, "tmp", strconv.Itoa(os.Getpid())),
		childBin: filepath.Join(filepath.Dir(exe), "child"), // run.sh builds both into one directory
		chk:      newChecker(g, *seed),
		tr:       &tracer{t0: time.Now()}, // the traced mode turns it on after set-up
		rep:      &report{metrics: make(map[string]metric)},
	}
	var runFn func(context.Context, *env) error
	switch *workload {
	case "sweep":
		runFn = runSweep
	case "replay":
		runFn = runReplay
	case "serve":
		runFn = runServe
	default:
		return fmt.Errorf("unknown -workload %q (want sweep, replay or serve)", *workload)
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	err = runFn(ctx, e)
	if rerr := os.RemoveAll(e.tmp); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	names := endToEndNames
	if e.traced {
		names = layerNames
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceOn)
	if e.traced {
		if err := e.tr.write(filepath.Join(e.outDir, "spans", stem+".json")); err != nil {
			return err
		}
	}
	return e.rep.print(stdout, *workload, e, names, filepath.Join(e.outDir, "results", stem+".json"))
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report collects one run's metrics and operation counts.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	invalid   []string // why the run's measurement is not valid, if it is not
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// print writes the human-readable lines, the full result record (also
// saved to recordPath), and last the JSON result line carrying names.
func (r *report) print(w io.Writer, workload string, e *env, names []string, recordPath string) error {
	passed, skipped, failures := e.chk.tally()
	for _, f := range failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	golden := "passed"
	switch {
	case skipped > 0 && passed == 0:
		golden = "skipped (held-out seed)"
	case skipped > 0:
		golden = "partly skipped"
	}
	fmt.Fprintf(w, "output check: %d golden comparisons passed, %d skipped: %s; %d failures\n",
		passed, skipped, golden, len(failures))
	for _, why := range r.invalid {
		fmt.Fprintf(w, "INVALID RUN: %s\n", why)
	}
	all := append(append([]string(nil), endToEndNames...), layerNames...)
	for _, n := range all {
		if m, ok := r.metrics[n]; ok {
			fmt.Fprintf(w, "%-28s %14.6g %-8s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]valueUnit, len(names))
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out[n] = valueUnit{m.Value, m.Unit}
	}
	rec, err := json.Marshal(map[string]any{"record": map[string]any{
		"workload":        workload,
		"seed":            e.seed,
		"seconds":         e.window.Seconds(),
		"traced":          e.traced,
		"host":            hostInfo(),
		"metrics":         r.metrics,
		"golden":          map[string]any{"passed": passed, "skipped": skipped, "state": golden},
		"failures":        len(failures),
		"valid":           len(r.invalid) == 0,
		"invalid_reasons": r.invalid,
	}})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(recordPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(recordPath, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rec)
	final, err := json.Marshal(struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   any   `json:"metrics"`
	}{len(failures) == 0 && r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}

// scratchDir makes a fresh directory under the run's scratch area; run
// removes the whole area at exit.
func scratchDir(e *env, name string) (string, error) {
	dir := filepath.Join(e.tmp, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// timeSetup runs setup setupReps times and returns the median duration
// in seconds.
func timeSetup(setup func(rep int) error) (float64, error) {
	ds := make([]float64, setupReps)
	for i := range ds {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds), nil
}
