package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCleanModule runs the full suite over this repository: the gate
// must stay green, so findings here are real regressions.
func TestCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errb strings.Builder
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on the repository tree\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("clean run should print nothing, got:\n%s", out.String())
	}
}

// TestFindingsExitCode runs the suite over the known-bad fixture module
// and checks the text output contract.
func TestFindingsExitCode(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-rule", "floatcmp,exhaustive-enum",
		"../../internal/analysis/testdata/bad/..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"floats/floats.go:5: [floatcmp]",
		"floats/floats.go:8: [floatcmp]",
		"enums/enums.go:15: [exhaustive-enum]",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "[validate-coverage]") {
		t.Errorf("-rule filter leaked another rule:\n%s", s)
	}
}

// TestJSONShape checks the -json encoding.
func TestJSONShape(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", "-rule", "floatcmp",
		"../../internal/analysis/testdata/bad/..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "floatcmp" || d.File == "" || d.Line == 0 || d.Col == 0 ||
			!strings.Contains(d.Message, "floating-point") {
			t.Errorf("malformed finding: %+v", d)
		}
	}
}

func TestUnknownRule(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-rule", "nosuchrule", "./..."}, &out, &errb); code != 2 {
		t.Errorf("exit %d for unknown rule, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown rule") {
		t.Errorf("stderr should name the unknown rule, got:\n%s", errb.String())
	}
}

// TestListRules checks that the README's rule table names exactly the
// rules -list prints, in the same order: the suite has one list of
// rules, and the documentation cannot drift from it.
func TestListRules(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for -list, want 0", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n| Rule | Protects |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no \"| Rule | Protects |\" table")
	}
	var documented []string
	for _, row := range strings.Split(table, "\n") {
		name, found := strings.CutPrefix(row, "| `")
		if !found {
			break
		}
		name, _, _ = strings.Cut(name, "`")
		documented = append(documented, name)
	}
	if !slices.Equal(listed, documented) {
		t.Errorf("README rule table and -list disagree:\nREADME: %v\n-list:  %v", documented, listed)
	}
}

func TestNoModuleRoot(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"/"}, &out, &errb); code != 2 {
		t.Errorf("exit %d for a pattern outside any module, want 2", code)
	}
}
