package analysis

import (
	"strings"
	"testing"
)

func TestGoLeakFindings(t *testing.T) {
	m := loadTestModule(t, "goleakbad")
	diags := Run(m, []Analyzer{GoLeak{}})
	checkDiags(t, m, diags, []string{
		"spawn/spawn.go:15: [goleak] goroutine in context-taking function Leak has no WaitGroup join, channel hand-off or ctx exit (bound it, or annotate //storemlp:daemon)",
		"spawn/spawn.go:22: [goleak] goroutine in context-taking function Fire has no WaitGroup join, channel hand-off or ctx exit (bound it, or annotate //storemlp:daemon)",
	})
}

// TestConcurrencyAnalyzersCleanOnGood pins the false-positive side: the
// good module spawns no goroutines in context-taking functions.
func TestConcurrencyAnalyzersCleanOnGood(t *testing.T) {
	m := loadTestModule(t, "good")
	diags := Run(m, []Analyzer{GoLeak{}})
	if len(diags) != 0 {
		t.Errorf("good module should be clean, got:\n%s",
			strings.Join(render(t, m, diags), "\n"))
	}
}
