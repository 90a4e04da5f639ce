// Command storemlpvet runs MLPsim's repo-specific static-analysis suite
// over the module; -list names its rules. DESIGN.md ("Static analysis"
// and the sections it points to) gives each rule's invariant and the
// mutation ledger that justifies it.
//
// Usage:
//
//	storemlpvet [-rule r1,r2] [-json] [-list] [-timing] [./...]
//
// The package pattern argument is accepted for symmetry with go vet;
// the suite always analyzes the whole module enclosing the pattern's
// directory (the invariants it checks are cross-package). All rules
// share one type-checked load and one CFG cache; -timing prints each
// rule's marginal wall time to stderr. Exit status is 0 when clean, 1
// when findings are reported, 2 on a load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"storemlp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("storemlpvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ruleFlag := fs.String("rule", "", "comma-separated rule names to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array")
	listFlag := fs.Bool("list", false, "list the rules and exit")
	timingFlag := fs.Bool("timing", false, "print per-rule wall time to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.DefaultAnalyzers()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *ruleFlag != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*ruleFlag, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var filtered []analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				filtered = append(filtered, a)
				delete(want, a.Name())
			}
		}
		if len(want) > 0 {
			var unknown []string
			for r := range want {
				unknown = append(unknown, r)
			}
			fmt.Fprintf(stderr, "storemlpvet: unknown rule(s): %s (use -list)\n",
				strings.Join(unknown, ", "))
			return 2
		}
		analyzers = filtered
	}

	root, err := moduleRoot(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "storemlpvet: %v\n", err)
		return 2
	}
	loadStart := time.Now()
	mod, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintf(stderr, "storemlpvet: %v\n", err)
		return 2
	}
	loadTime := time.Since(loadStart)

	diags, timings := analysis.RunWithTiming(mod, analyzers)
	relativize(diags, root)
	if *timingFlag {
		var total time.Duration
		fmt.Fprintf(stderr, "storemlpvet: module load (shared by all rules) %v\n", loadTime.Round(time.Millisecond))
		for _, tm := range timings {
			fmt.Fprintf(stderr, "storemlpvet: %-18s %v\n", tm.Rule, tm.Elapsed.Round(time.Millisecond))
			total += tm.Elapsed
		}
		fmt.Fprintf(stderr, "storemlpvet: %-18s %v (rules) / %v (with load)\n",
			"total", total.Round(time.Millisecond), (total + loadTime).Round(time.Millisecond))
	}

	if *jsonFlag {
		type jsonDiag struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "storemlpvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// moduleRoot resolves the positional package pattern (default ".") to
// the root of the enclosing module by walking up to the nearest go.mod.
func moduleRoot(args []string) (string, error) {
	dir := "."
	if len(args) > 0 {
		// Clean maps "" (from a bare "...") to "." and keeps "/" intact.
		dir = filepath.Clean(strings.TrimSuffix(args[0], "..."))
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found enclosing %s", abs)
		}
		d = parent
	}
}

// relativize rewrites diagnostic filenames relative to the module root
// for stable, readable output.
func relativize(diags []analysis.Diagnostic, root string) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil &&
			!strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}
