package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storemlp"
)

func TestRunBasic(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-workload", "tpcw", "-insts", "100000", "-warm", "50000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EPI", "store MLP", "off-chip CPI", "PC Sp1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunVerboseAndModes(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{
		"-workload", "specjbb", "-insts", "80000", "-warm", "40000",
		"-model", "wc", "-prefetch", "2", "-hws", "2", "-smac", "1024",
		"-sle", "-pps", "-v",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WC Sp2", "SLE", "PPS", "HWS2", "SMAC1K", "termination"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-model", "nope"},
		{"-prefetch", "9"},
		{"-hws", "7"},
		{"-workload", "nope"},
		{"-sle", "-tm"}, // mutually exclusive
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), append(args, "-insts", "1000", "-warm", "0"), &out); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

func TestRunFromTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storemlp.WriteTrace(f, storemlp.SPECweb(1), storemlp.DefaultConfig(), 60_000); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out strings.Builder
	if err := run(context.Background(), []string{"-trace", path, "-warm", "20000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EPI") {
		t.Errorf("trace run output:\n%s", out.String())
	}
}

// TestRunTraceRejectsGeneratorFlags: -insts, -workload and -seed
// configure the generator, which a -trace run does not use; setting any
// of them alongside -trace is an error instead of being dropped (the
// run would otherwise measure the whole trace after -warm, not -insts).
func TestRunTraceRejectsGeneratorFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storemlp.WriteTrace(f, storemlp.TPCW(1), storemlp.DefaultConfig(), 30_000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string // substring of the error; "" means the run succeeds
	}{
		{[]string{"-trace", path, "-warm", "10000"}, ""},
		{[]string{"-trace", path, "-insts", "5000", "-warm", "10000"}, "tracegen -n"},
		{[]string{"-trace", path, "-workload", "tpcw"}, "-workload cannot be combined with -trace"},
		{[]string{"-trace", path, "-seed", "1"}, "-seed cannot be combined with -trace"},
		{[]string{"-seed", "2", "-trace", path, "-insts", "5000"}, "-insts, -seed cannot"},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.trace")}, "running trace"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(context.Background(), c.args, &out)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: err = %v, want one containing %q", c.args, err, c.want)
		}
	}
}

func TestRunCycleValidator(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-workload", "tpcw", "-insts", "80000", "-warm", "40000", "-cycle"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cycle-level validator") ||
		!strings.Contains(out.String(), "epoch-vs-cycle EPI ratio") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunModelledPredictor(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-workload", "specjbb", "-insts", "60000", "-warm", "30000", "-bpred"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EPI") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunProgressTicker(t *testing.T) {
	// -progress routes a live ticker to stderr; substitute a buffer and
	// check the run still succeeds and the ticker line appeared. The
	// ticker fires every 250ms, so give the run enough instructions to
	// cross at least one tick on slow machines — but tolerate a fast
	// run that finishes before the first tick (blank output is legal).
	var out, errBuf strings.Builder
	old := stderr
	stderr = &errBuf
	defer func() { stderr = old }()

	err := run(context.Background(), []string{
		"-workload", "tpcw", "-insts", "400000", "-warm", "100000", "-progress",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EPI") {
		t.Errorf("run output missing stats:\n%s", out.String())
	}
	if got := errBuf.String(); got != "" && !strings.Contains(got, "progress:") {
		t.Errorf("ticker wrote something that is not a progress line: %q", got)
	}
}

func TestRunProgressTraceFile(t *testing.T) {
	// The -trace path goes through RunTraceContext, which attaches the
	// root trace carried by the context: -progress must not perturb the
	// run.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storemlp.WorkloadByName("database", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storemlp.WriteTrace(f, w, storemlp.DefaultConfig(), 50_000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errBuf strings.Builder
	old := stderr
	stderr = &errBuf
	defer func() { stderr = old }()
	if err := run(context.Background(), []string{"-trace", path, "-warm", "10000", "-progress"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EPI") {
		t.Errorf("trace run output missing stats:\n%s", out.String())
	}
}
