package analysis

import (
	"strings"
	"testing"
)

func TestLockBalanceFindings(t *testing.T) {
	m := loadTestModule(t, "lockbalancebad")
	diags := Run(m, []Analyzer{LockBalance{}})
	checkDiags(t, m, diags, []string{
		"bank/bank.go:50: [lockbalance] a.mu can still be held when the function returns (unlock it on every path, or defer the unlock; lock-handoff functions opt out with //storemlp:locked)",
		"bank/bank.go:63: [lockbalance] a.mu can still be held when the function returns (unlock it on every path, or defer the unlock; lock-handoff functions opt out with //storemlp:locked)",
	})
}

func TestSharedCaptureFindings(t *testing.T) {
	m := loadTestModule(t, "sharedcapturebad")
	diags := Run(m, []Analyzer{SharedCapture{}})
	checkDiags(t, m, diags, []string{
		"fan/fan.go:20: [sharedcapture] go-closure writes captured variable total without synchronization (guard it with a mutex, give each worker its own slot, or annotate //storemlp:owned)",
		"fan/fan.go:35: [sharedcapture] go-closure writes captured variable res without synchronization (guard it with a mutex, give each worker its own slot, or annotate //storemlp:owned)",
	})
}

func TestCloseAllFindings(t *testing.T) {
	m := loadTestModule(t, "closebad")
	diags := Run(m, []Analyzer{CloseAll{}})
	checkDiags(t, m, diags, []string{
		"res/res.go:39: [closeall] r (*example.com/closebad/res.R) is not closed on every path out of the function (close it, hand it off, or annotate //storemlp:noclose)",
	})
}

// TestParallelAnalyzersCleanOnGood pins the false-positive side: the
// good module has balanced locks, no go statements writing captures
// and no Close-able constructors.
func TestParallelAnalyzersCleanOnGood(t *testing.T) {
	m := loadTestModule(t, "good")
	diags := Run(m, []Analyzer{
		LockBalance{},
		SharedCapture{},
		CloseAll{},
	})
	if len(diags) != 0 {
		t.Errorf("good module should be clean, got:\n%s",
			strings.Join(render(t, m, diags), "\n"))
	}
}
