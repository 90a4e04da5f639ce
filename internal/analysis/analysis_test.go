package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadTestModule loads one of the testdata mini-modules. Loading
// type-checks stdlib imports from GOROOT source, so modules are cached
// per test binary run via this map.
var moduleCache = map[string]*Module{}

func loadTestModule(t *testing.T, name string) *Module {
	t.Helper()
	if m := moduleCache[name]; m != nil {
		return m
	}
	m, err := Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	moduleCache[name] = m
	return m
}

// basicAnalyzers are the rules the good and bad fixture modules
// exercise together.
var basicAnalyzers = []Analyzer{ExhaustiveEnum{}, ValidateCoverage{}, FloatCmp{}}

// render formats diagnostics with filenames relative to the module
// root, matching the CLI's output.
func render(t *testing.T, m *Module, diags []Diagnostic) []string {
	t.Helper()
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		rel, err := filepath.Rel(m.Dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		d.Pos.Filename = filepath.ToSlash(rel)
		out = append(out, d.String())
	}
	return out
}

func TestGoodModuleIsClean(t *testing.T) {
	m := loadTestModule(t, "good")
	diags := Run(m, basicAnalyzers)
	if len(diags) != 0 {
		t.Errorf("good module should be clean, got:\n%s",
			strings.Join(render(t, m, diags), "\n"))
	}
}

func TestBadModuleFindings(t *testing.T) {
	m := loadTestModule(t, "bad")
	all := Run(m, basicAnalyzers)

	tests := []struct {
		rule string
		want []string
	}{
		{"exhaustive-enum", []string{
			"enums/enums.go:15: [exhaustive-enum] switch over example.com/bad/enums.Mode misses Fast (add the cases or a default clause)",
		}},
		{"validate-coverage", []string{
			"config/config.go:11: [validate-coverage] field Config.Rate is not checked by Validate (add a check or a // storemlpvet:novalidate comment)",
		}},
		{"floatcmp", []string{
			"floats/floats.go:5: [floatcmp] floating-point == comparison (use a sign test or an epsilon)",
			"floats/floats.go:8: [floatcmp] floating-point != comparison (use a sign test or an epsilon)",
		}},
	}

	total := 0
	for _, tt := range tests {
		t.Run(tt.rule, func(t *testing.T) {
			var got []string
			for i, d := range all {
				if d.Rule == tt.rule {
					got = append(got, render(t, m, all[i:i+1])...)
				}
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %d findings, want %d:\ngot:  %s\nwant: %s",
					len(got), len(tt.want),
					strings.Join(got, "\n      "), strings.Join(tt.want, "\n      "))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("finding %d:\ngot:  %s\nwant: %s", i, got[i], tt.want[i])
				}
			}
		})
		total += len(tt.want)
	}
	if len(all) != total {
		t.Errorf("total findings = %d, want %d:\n%s",
			len(all), total, strings.Join(render(t, m, all), "\n"))
	}
}

func TestEnumDiscovery(t *testing.T) {
	m := loadTestModule(t, "good")
	enums := discoverEnums(m)
	es, ok := enums["example.com/good/enums.Color"]
	if !ok {
		t.Fatal("Color not discovered as an enum")
	}
	var names []string
	for _, e := range es.enums {
		names = append(names, e.name)
	}
	if got := strings.Join(names, ","); got != "Red,Green,Blue" {
		t.Errorf("Color enumerators = %s, want Red,Green,Blue (sentinel stripped)", got)
	}
	if _, ok := enums["example.com/good/enums.Flags"]; ok {
		t.Error("bitmask Flags wrongly discovered as an enum")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "floatcmp", Message: "msg"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 7
	if got, want := d.String(), "a/b.go:7: [floatcmp] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
