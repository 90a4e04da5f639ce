// Command lockdetect reproduces the paper's lock detection tool (§4.2):
// it scans a TSO (PC) binary trace, identifies every lock acquisition
// and release sequence structurally, and optionally rewrites them into
// the weak-consistency (PowerPC) idiom, elides them (SLE), or converts
// them to transactions (TM).
//
// Examples:
//
//	lockdetect -in db.trace -out db-marked.trace
//	lockdetect -in db.trace -rewrite wc -out db-wc.trace
//	lockdetect -in db.trace -rewrite sle -out db-sle.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"storemlp/internal/consistency"
	"storemlp/internal/isa"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lockdetect: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lockdetect", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "input trace file (required)")
		out     = fs.String("out", "", "output trace file (omit for a dry run)")
		rewrite = fs.String("rewrite", "", "rewrite after detection: '', 'wc', 'sle', or 'tm'")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in trace file is required")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	// One streaming pass: detection, rewrite and the optional output
	// trace all consume the input as it decodes.
	reader, err := colv1.NewReader(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", *in, err)
	}

	model, sle, tm := consistency.PC, false, false
	switch *rewrite {
	case "":
	case "wc":
		model = consistency.WC
	case "sle":
		sle = true
	case "tm":
		tm = true
	default:
		return fmt.Errorf("unknown rewrite %q (want wc, sle or tm)", *rewrite)
	}
	src := consistency.Rewrite(consistency.DetectLocks(reader), model, sle, tm)

	// Count lock structure while streaming.
	var acquires, releases, total int64
	counted := trace.Map(src, func(inst isa.Inst) (isa.Inst, bool) {
		total++
		if inst.Flags.Has(isa.FlagLockAcquire) &&
			(inst.Op == isa.OpCASA || inst.Op == isa.OpLoadLocked || inst.Op == isa.OpLoad) {
			acquires++
		}
		if inst.Flags.Has(isa.FlagLockRelease) && inst.Op.IsStore() {
			releases++
		}
		return inst, true
	})

	if *out != "" {
		o, err := os.Create(*out)
		if err != nil {
			return err
		}
		n, err := trace.WriteAll(o, counted)
		if cerr := o.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Fprintf(stdout, "wrote %d instructions to %s\n", n, *out)
	} else {
		// Drain the stream so the counting transform sees all of it.
		buf := make([]isa.Inst, 4096)
		for trace.Fill(counted, buf) != 0 {
		}
	}
	if reader.Err() != nil {
		return fmt.Errorf("reading %s: %w", *in, reader.Err())
	}
	fmt.Fprintf(stdout, "instructions: %d\nlock acquires: %d\nlock releases: %d\n",
		total, acquires, releases)
	return nil
}
