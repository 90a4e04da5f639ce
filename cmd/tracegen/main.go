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
	"path/filepath"
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

	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
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

	written, err := writeFile(*out, func(f io.Writer) (int64, error) {
		return storemlp.WriteTrace(f, w, cfg, *n)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d instructions (%s, model=%s, sle=%v) to %s\n",
		written, w.Name, cfg.Model, *sle, *out)
	return nil
}

// writeFile writes path through a temporary file in the same directory
// and renames it over path only once write and Close have succeeded, so
// a failed run neither truncates an existing trace at path nor leaves a
// partial one behind: on any failure the temporary file is removed.
func writeFile(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if err == nil {
		// CreateTemp makes the file owner-only; a trace is an ordinary
		// data file.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		// Best effort: the write error is what the caller must see.
		_ = os.Remove(f.Name())
		return 0, err
	}
	return n, nil
}
