package metrics

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.23456)
	tb.AddRow("beta", 42)
	tb.AddRow("gamma", float32(0.5))
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	out := tb.String()
	for _, want := range []string{"== Demo ==", "name", "value", "alpha", "1.235", "42", "0.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// No title: no header line.
	tb2 := NewTable("", "a")
	tb2.AddRow("x")
	if strings.Contains(tb2.String(), "==") {
		t.Error("untitled table should have no title banner")
	}
}
