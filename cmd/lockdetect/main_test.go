package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"storemlp"
	"storemlp/internal/trace/colv1"
)

// writeTestTrace produces a PC trace with locks for the tool to find.
func writeTestTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := storemlp.WriteTrace(f, storemlp.SPECjbb(1), storemlp.DefaultConfig(), 100_000); err != nil {
		t.Fatal(err)
	}
}

func acquires(t *testing.T, out string) int {
	t.Helper()
	m := regexp.MustCompile(`lock acquires: (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no acquire count in %q", out)
	}
	var n int
	if _, err := fmtSscan(m[1], &n); err != nil {
		t.Fatal(err)
	}
	return n
}

func fmtSscan(s string, n *int) (int, error) {
	v := 0
	for _, c := range s {
		v = v*10 + int(c-'0')
	}
	*n = v
	return 1, nil
}

func TestDryRunDetects(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.trace")
	writeTestTrace(t, in)
	var out strings.Builder
	if err := run([]string{"-in", in}, &out); err != nil {
		t.Fatal(err)
	}
	if acquires(t, out.String()) == 0 {
		t.Errorf("no locks detected: %s", out.String())
	}
	if !strings.Contains(out.String(), "lock releases:") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRewriteVariants(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.trace")
	writeTestTrace(t, in)
	for _, mode := range []string{"wc", "sle", "tm"} {
		outPath := filepath.Join(dir, mode+".trace")
		var out strings.Builder
		if err := run([]string{"-in", in, "-rewrite", mode, "-out", outPath}, &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !strings.Contains(out.String(), "wrote") {
			t.Errorf("%s output: %s", mode, out.String())
		}
		fi, err := os.Stat(outPath)
		if err != nil || fi.Size() == 0 {
			t.Errorf("%s: output trace missing/empty", mode)
		}
		// TM removes all lock instructions.
		if mode == "tm" && acquires(t, out.String()) != 0 {
			t.Error("tm rewrite should leave no acquires")
		}
	}
}

func TestLockdetectErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -in should error")
	}
	if err := run([]string{"-in", "/does/not/exist"}, &out); err == nil {
		t.Error("missing file should error")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.trace")
	writeTestTrace(t, in)
	if err := run([]string{"-in", in, "-rewrite", "bogus"}, &out); err == nil {
		t.Error("unknown rewrite should error")
	}
	// Not a trace file.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("JUNKJUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", junk}, &out); err == nil {
		t.Error("junk input should error")
	}
}

// TestLegacyTraceRejected: a trace in the removed record-at-a-time
// format fails with the same removal error, naming the remedy, from
// every entry point that opens traces — the streaming reader
// (RunTrace), the mapped file (RunTraceFile) and lockdetect -in.
func TestLegacyTraceRejected(t *testing.T) {
	legacy := []byte("SMLT\x01\x00\x00\x00\x08\x00\x00\x00\x02\x00")
	path := filepath.Join(t.TempDir(), "legacy.trace")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, traceErr := storemlp.RunTrace(bytes.NewReader(legacy), storemlp.DefaultConfig(), 0)
	_, fileErr := storemlp.RunTraceFile(path, storemlp.DefaultConfig(), 0)
	var out strings.Builder
	for name, err := range map[string]error{
		"RunTrace":       traceErr,
		"RunTraceFile":   fileErr,
		"lockdetect -in": run([]string{"-in", path}, &out),
	} {
		if !errors.Is(err, colv1.ErrBadMagic) || !strings.Contains(err.Error(), "regenerate the trace with tracegen") {
			t.Errorf("%s: err = %v, want the legacy-format-removed error", name, err)
		}
	}
}
