package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/ from the current harness:
//
//	go test ./cmd/experiments -run TestHarnessGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ from the current harness")

// goldenArgs is the reduced scale the fixture records: every experiment,
// every CSV, at four concurrent runs (row order must not depend on it).
var goldenArgs = []string{"-insts", "20000", "-warm", "10000", "-parallel", "4"}

// harnessOutputs runs every experiment at goldenArgs and returns the
// printed text as "stdout.txt" plus each CSV under "csv/<name>.csv".
func harnessOutputs(t *testing.T) map[string]string {
	t.Helper()
	old := stderr
	stderr = io.Discard
	defer func() { stderr = old }()
	dir := t.TempDir()
	var out strings.Builder
	if err := run(context.Background(), append(goldenArgs, "-csv", dir), &out); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"stdout.txt": out.String()}
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files["csv/"+filepath.Base(p)] = string(data)
	}
	return files
}

// TestHarnessGolden pins the harness end to end, renderers and CSV
// export included, which the engine's golden fixture does not cover: a
// change that moves a printed number or a CSV cell re-records
// testdata/ with -update-golden and says why.
func TestHarnessGolden(t *testing.T) {
	got := harnessOutputs(t)
	if *updateGolden {
		if err := os.RemoveAll("testdata"); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join("testdata", "csv"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join("testdata", name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote testdata/ (%d files)", len(got))
		return
	}
	want := map[string]string{}
	for _, pattern := range []string{"stdout.txt", "csv/*.csv"} {
		paths, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			name, _ := filepath.Rel("testdata", p)
			want[filepath.ToSlash(name)] = string(data)
		}
	}
	if len(want) == 0 {
		t.Fatal("no fixture in testdata/ (run with -update-golden to create)")
	}
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		g, inGot := got[name]
		w, inWant := want[name]
		switch {
		case !inWant:
			t.Errorf("%s: written by the harness but not in testdata/", name)
		case !inGot:
			t.Errorf("%s: in testdata/ but not written by the harness", name)
		case g != w:
			t.Errorf("%s differs from testdata/:\n%s", name, firstDiff(g, w))
		}
	}
}

// firstDiff reports the first differing line of got and want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line count: got %d, want %d", len(g), len(w))
}
