// Command benchdiff compares fresh benchmark JSON (bench.sh output,
// BENCH_engine.json / BENCH_serve.json shape) against committed
// baselines and flags regressions with direction-aware per-metric
// tolerances: ns_per_op going UP is a regression, speedup_vs_baseline
// going DOWN is a regression, and metrics without a rule are
// informational only.
//
// Usage:
//
//	benchdiff [-mode gate|report] [-slack f] [-v] base.json new.json [base2.json new2.json ...]
//
// Files are compared pairwise. Exit status: 0 clean, 1 at least one
// regression in gate mode, 2 usage or I/O error. Report mode prints
// the same findings but always exits 0 (for smoke-sized runs whose
// numbers are too noisy to gate on); -slack multiplies every tolerance
// for loaded CI machines. DESIGN.md §17 documents the tolerance table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A rule classifies metrics by a substring of the final path component
// and says which direction is a regression and how much relative drift
// is tolerated. First match wins, so more specific substrings come
// first.
type rule struct {
	match string
	// worse is +1 when a larger value is a regression (latency,
	// allocations), -1 when a smaller value is (throughput, speedup).
	worse float64
	tol   float64
}

// rules is the tolerance table (mirrored in DESIGN.md §17). The order
// matters: "insts_per_sec" must match before a hypothetical bare
// "insts" rule would, and exact-ish names precede generic suffixes.
var rules = []rule{
	{"errors", +1, 0},             // any new benchmark error gates
	{"allocs_per_op", +1, 0.01},   // allocation counts are near-deterministic
	{"ns_per_op", +1, 0.10},       // includes traced_ns_per_op, replay_ns_per_op
	{"insts_per_sec", -1, 0.10},   // throughput: down is a regression
	{"throughput_rps", -1, 0.25},  // serving throughput is noisier
	{"speedup", -1, 0.10},         // speedup_vs_baseline, speedup_vs_serial, speedup
	{"tracer_overhead", +1, 0.50}, // small fraction; only gate on blowups
	{"_ms", +1, 0.25},             // p50_ms/p95_ms/p99_ms latency percentiles
}

// ruleFor returns the first rule whose match is a substring of the
// metric's final path component, or nil (informational metric).
func ruleFor(path string) *rule {
	last := path
	if i := strings.LastIndexByte(last, '.'); i >= 0 {
		last = last[i+1:]
	}
	for i := range rules {
		if strings.Contains(last, rules[i].match) {
			return &rules[i]
		}
	}
	return nil
}

// flatten walks decoded JSON, collecting every numeric leaf under its
// dotted path ("engine.replay_ns_per_op"). Non-numeric leaves
// (strings, bools, nulls) are ignored: the diff is about measurements.
func flatten(prefix string, v interface{}, out map[string]float64) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, sub, out)
		}
	case []interface{}:
		for i, sub := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), sub, out)
		}
	case float64:
		out[prefix] = x
	}
}

func load(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]float64)
	flatten("", v, out)
	return out, nil
}

// finding is one gated metric whose drift exceeded its tolerance.
type finding struct {
	path        string
	base, fresh float64
	drift, tol  float64 // drift > 0 means "worse", in the rule's direction
}

// diff compares one baseline/fresh pair and returns regressions.
// Metrics present on only one side are reported to w but never gate:
// a new benchmark field must not fail CI retroactively.
func diff(base, fresh map[string]float64, slack float64, verbose bool, tag string, w io.Writer) []finding {
	paths := make([]string, 0, len(base))
	for p := range base {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var regs []finding
	for _, p := range paths {
		b := base[p]
		f, ok := fresh[p]
		if !ok {
			fmt.Fprintf(w, "NOTE    %s.%s: metric missing from fresh run\n", tag, p)
			continue
		}
		r := ruleFor(p)
		if r == nil {
			continue // informational metric, no direction defined
		}
		var drift float64
		if b > 0 || b < 0 {
			// Relative to |b|, so a negative baseline (a traced run
			// faster than the untraced one) keeps the rule's direction.
			drift = r.worse * (f - b) / math.Abs(b)
		} else {
			// Zero baseline (errors): anything nonzero is an infinite
			// relative drift in the worse direction, a clean
			// improvement otherwise; f == b == 0 stays drift 0.
			drift = r.worse * (f - b) * 1e12
		}
		tol := r.tol * slack
		switch {
		case drift > tol:
			regs = append(regs, finding{path: tag + "." + p, base: b, fresh: f, drift: drift, tol: tol})
			fmt.Fprintf(w, "REGRESS %s.%s: %g -> %g (%+.1f%% worse, tol %.0f%%)\n",
				tag, p, b, f, drift*100, tol*100)
		case verbose && drift < -tol:
			fmt.Fprintf(w, "IMPROVE %s.%s: %g -> %g (%.1f%% better)\n", tag, p, b, f, -drift*100)
		}
	}
	newPaths := make([]string, 0)
	for p := range fresh {
		if _, ok := base[p]; !ok {
			newPaths = append(newPaths, p)
		}
	}
	sort.Strings(newPaths)
	for _, p := range newPaths {
		fmt.Fprintf(w, "NOTE    %s.%s: new metric (no baseline)\n", tag, p)
	}
	return regs
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	mode := fs.String("mode", "gate", "gate (regressions exit 1) or report (always exit 0)")
	slack := fs.Float64("slack", 1.0, "multiply every tolerance (noisy or smoke-sized runs)")
	verbose := fs.Bool("v", false, "also print improvements")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: benchdiff [-mode gate|report] [-slack f] [-v] base.json new.json [base2 new2 ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mode != "gate" && *mode != "report" {
		fmt.Fprintf(errw, "benchdiff: unknown -mode %q (want gate or report)\n", *mode)
		return 2
	}
	files := fs.Args()
	if len(files) == 0 || len(files)%2 != 0 {
		fs.Usage()
		return 2
	}
	compared, regressed := 0, 0
	for i := 0; i < len(files); i += 2 {
		base, err := load(files[i])
		if err != nil {
			fmt.Fprintf(errw, "benchdiff: %v\n", err)
			return 2
		}
		fresh, err := load(files[i+1])
		if err != nil {
			fmt.Fprintf(errw, "benchdiff: %v\n", err)
			return 2
		}
		tag := strings.TrimSuffix(filepath.Base(files[i]), ".json")
		regressed += len(diff(base, fresh, *slack, *verbose, tag, out))
		compared += len(base)
	}
	fmt.Fprintf(out, "benchdiff: %d metrics compared, %d regressions (mode=%s, slack=%g)\n",
		compared, regressed, *mode, *slack)
	if regressed > 0 && *mode == "gate" {
		return 1
	}
	return 0
}
