// Command tracegen writes binary instruction traces for the four
// commercial workloads — the stand-in for the paper's full-system
// simulator trace capture. Traces are emitted for the TSO (PC) model by
// default; -wc applies the lock-idiom rewrite and -sle elides locks.
//
// Traces are written in the columnar block format, the one format
// mlpsim -trace, lockdetect and the trace API read.
//
// Example:
//
//	tracegen -workload database -n 10000000 -o database.trace
//	tracegen -workload specjbb -wc -o specjbb-wc.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"storemlp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "database", "workload: database, tpcw, specjbb, specweb")
		n            = fs.Int64("n", 5_000_000, "instructions to generate")
		out          = fs.String("o", "", "output file (required)")
		seed         = fs.Int64("seed", 1, "generator seed")
		wc           = fs.Bool("wc", false, "rewrite lock idioms for weak consistency (PowerPC)")
		sle          = fs.Bool("sle", false, "apply speculative lock elision")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o output file is required")
	}

	w, err := storemlp.WorkloadByName(strings.ToLower(*workloadName), *seed)
	if err != nil {
		return err
	}
	cfg := storemlp.DefaultConfig()
	if *wc {
		cfg.Model = storemlp.WC
	}
	cfg.SLE = *sle

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	written, err := storemlp.WriteTrace(f, w, cfg, *n)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d instructions (%s, model=%s, sle=%v) to %s\n",
		written, w.Name, cfg.Model, *sle, *out)
	return nil
}
