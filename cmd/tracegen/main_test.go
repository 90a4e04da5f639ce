package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storemlp"
	"storemlp/internal/trace/colv1"
)

func TestTracegenWritesTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.trace")
	var out strings.Builder
	err := run([]string{"-workload", "tpcw", "-n", "50000", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 50000 instructions") {
		t.Errorf("output: %s", out.String())
	}
	// The trace is readable and drivable.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := storemlp.RunTrace(f, storemlp.DefaultConfig(), 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Insts != 25_000 {
		t.Errorf("Insts = %d", stats.Insts)
	}
}

func TestTracegenWCAndSLE(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-workload", "specjbb", "-n", "30000", "-wc", "-sle",
		"-o", filepath.Join(dir, "x.trace")}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model=WC") || !strings.Contains(out.String(), "sle=true") {
		t.Errorf("output: %s", out.String())
	}
}

// TestTracegenFormatRoundTrip: tracegen's output is a columnar trace
// that opens through colv1.Open and holds exactly -n instructions.
func TestTracegenFormatRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace")
	var out strings.Builder
	if err := run([]string{"-workload", "tpcw", "-n", "30000", "-seed", "9", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	cf, err := colv1.Open(path)
	if err != nil {
		t.Fatalf("tracegen output does not open as a columnar trace: %v", err)
	}
	defer cf.Close()
	if got := cf.SizeHint(); got != 30_000 {
		t.Errorf("trace holds %d instructions, want 30000", got)
	}
}

func TestTracegenErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload", "tpcw"}, &out); err == nil {
		t.Error("missing -o should error")
	}
	if err := run([]string{"-workload", "nope", "-o", "/tmp/x"}, &out); err == nil {
		t.Error("unknown workload should error")
	}
	if err := run([]string{"-o", filepath.Join(t.TempDir(), "nodir", "x")}, &out); err == nil {
		t.Error("uncreatable file should error")
	}
}
