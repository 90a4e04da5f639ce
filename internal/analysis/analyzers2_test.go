package analysis

import (
	"strings"
	"testing"
)

// checkDiags asserts the exact rendered findings for one fixture run.
func checkDiags(t *testing.T, m *Module, diags []Diagnostic, want []string) {
	t.Helper()
	got := render(t, m, diags)
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\ngot:  %s\nwant: %s",
			len(got), len(want),
			strings.Join(got, "\n      "), strings.Join(want, "\n      "))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("finding %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func TestResetCompleteFindings(t *testing.T) {
	m := loadTestModule(t, "resetbad")
	diags := Run(m, []Analyzer{ResetComplete{}})
	checkDiags(t, m, diags, []string{
		"pool/pool.go:9: [resetcomplete] field Buf.dirty is not reassigned by Reset (stale state survives recycling; reset it or mark the field //storemlp:keep)",
	})
}

func TestResetCompleteConfiguredMethod(t *testing.T) {
	// With Reconfigure declared a reset-equivalent of a type that has no
	// such method, nothing changes; pointing it at Ring.zeroPos (which
	// only covers pos) must surface Ring's other fields.
	m := loadTestModule(t, "resetbad")
	diags := Run(m, []Analyzer{ResetComplete{Methods: map[string]string{
		"example.com/resetbad/pool.Ring": "zeroPos",
	}}})
	var rules []string
	for _, d := range diags {
		if strings.Contains(d.Message, "zeroPos") {
			rules = append(rules, d.Message)
		}
	}
	if len(rules) != 3 { // buf, stats, sub are not covered by zeroPos
		t.Errorf("want 3 zeroPos findings (buf, stats, sub), got %d:\n%s",
			len(rules), strings.Join(render(t, m, diags), "\n"))
	}
}

func TestGuardedByFindings(t *testing.T) {
	m := loadTestModule(t, "guardedbad")
	diags := Run(m, []Analyzer{GuardedBy{}})
	checkDiags(t, m, diags, []string{
		"flowq/flowq.go:22: [guardedby] field S.n accessed without holding s.mu (lock it, or annotate the function //storemlp:locked)",
		"flowq/flowq.go:35: [guardedby] field S.n accessed without holding s.mu (lock it, or annotate the function //storemlp:locked)",
		"queue/queue.go:33: [guardedby] field Q.items accessed without holding q.mu (lock it, or annotate the function //storemlp:locked)",
		"queue/queue.go:40: [guardedby] field Q.hits accessed without holding q.mu (lock it, or annotate the function //storemlp:locked)",
	})
}

func TestHotPathFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("hotpath shells out to go build")
	}
	m := loadTestModule(t, "hotpathbad")
	diags := Run(m, []Analyzer{HotPath{}})
	checkDiags(t, m, diags, []string{
		"hot/hot.go:14: [hotpath] //storemlp:noalloc function Leaky allocates: new(int) escapes to heap",
		"hot/hot.go:20: [hotpath] //storemlp:inline function Spin does not inline: recursive",
	})
}

func TestCtxPollFindings(t *testing.T) {
	m := loadTestModule(t, "ctxpollbad")
	diags := Run(m, []Analyzer{CtxPoll{TracePkg: "example.com/ctxpollbad/trace"}})
	checkDiags(t, m, diags, []string{
		"run/run.go:30: [ctxpoll] loop consumes trace batches without polling ctx (check ctx.Err() every batch so cancellation lands within the 8192-inst bound)",
		"run/run.go:44: [ctxpoll] loop consumes trace batches without polling ctx (check ctx.Err() every batch so cancellation lands within the 8192-inst bound)",
		"run/run.go:87: [ctxpoll] loop consumes trace batches without polling ctx (check ctx.Err() every batch so cancellation lands within the 8192-inst bound)",
	})
}

// TestNewAnalyzersCleanOnGood pins the false-positive side: the PR 1
// good module has Reset-less types, no guarded fields, no hot-path
// annotations and no trace package, so all four new rules are silent.
func TestNewAnalyzersCleanOnGood(t *testing.T) {
	m := loadTestModule(t, "good")
	diags := Run(m, []Analyzer{
		ResetComplete{},
		GuardedBy{},
		CtxPoll{TracePkg: "example.com/good/trace"},
	})
	if len(diags) != 0 {
		t.Errorf("good module should be clean, got:\n%s",
			strings.Join(render(t, m, diags), "\n"))
	}
}
