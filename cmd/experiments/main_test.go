package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSubset(t *testing.T) {
	var out, errBuf strings.Builder
	old := stderr
	stderr = &errBuf
	defer func() { stderr = old }()
	err := run(context.Background(), []string{"-run", "table1,table3", "-insts", "100000", "-warm", "60000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table 1", "Table 3", "database", "specweb"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "Figure 2") {
		t.Error("unselected experiment ran")
	}
	// Wall times go to stderr, so stdout stays a function of the flags.
	if strings.Contains(s, " took ") {
		t.Errorf("timing line on stdout:\n%s", s)
	}
	for _, want := range []string{"[table1 took", "[table3 took"} {
		if !strings.Contains(errBuf.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errBuf.String())
		}
	}
}

func TestRunNothingSelected(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-run", "bogus"}, &out); err == nil {
		t.Error("bogus selection should error")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4",
		"fig5", "fig6", "fig7", "fig8", "summary", "ablations"}
	if len(registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(registry), len(want))
	}
	for i, name := range want {
		if registry[i].name != name {
			t.Errorf("registry[%d] = %s, want %s", i, registry[i].name, name)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run(context.Background(), []string{"-run", "table2", "-insts", "60000", "-warm", "30000", "-csv", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Workload,Overlapped") {
		t.Errorf("csv content:\n%s", data)
	}
}

func TestRunProgressTicker(t *testing.T) {
	// -progress attaches one root trace to the whole harness via the context;
	// the run must succeed unchanged with the ticker active.
	var out, errBuf strings.Builder
	old := stderr
	stderr = &errBuf
	defer func() { stderr = old }()

	err := run(context.Background(), []string{
		"-run", "table1", "-insts", "60000", "-warm", "30000", "-progress",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("output missing Table 1:\n%s", out.String())
	}
	got := errBuf.String()
	if !strings.Contains(got, "[table1 took") {
		t.Errorf("stderr missing the table1 timing line: %q", got)
	}
	rest := timingLine.ReplaceAllString(got, "")
	if strings.TrimSpace(rest) != "" && !strings.Contains(rest, "progress:") {
		t.Errorf("ticker wrote something that is not a progress line: %q", got)
	}
}

// timingLine matches the per-experiment wall-time line run writes to stderr.
var timingLine = regexp.MustCompile(`\[\w+ took [0-9.]+s\]\n`)
