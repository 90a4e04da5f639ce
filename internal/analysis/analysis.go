package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical "file:line: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one repo-specific static check run over a whole module.
type Analyzer interface {
	// Name is the rule identifier used in output and -rule filters.
	Name() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
	// Run inspects the module and returns its findings.
	Run(m *Module) []Diagnostic
}

// DefaultAnalyzers returns the full suite configured for this
// repository's invariants.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		ExhaustiveEnum{},
		ValidateCoverage{},
		FloatCmp{},
		ResetComplete{Methods: map[string]string{
			"storemlp/internal/epoch.Engine": "Reconfigure",
		}},
		GuardedBy{},
		HotPath{},
		CtxPoll{TracePkg: "storemlp/internal/trace"},
		GoLeak{},
		LockBalance{},
		SharedCapture{},
		CloseAll{},
	}
}

// Run executes the analyzers over the module and returns all findings
// sorted by position then rule.
func Run(m *Module, analyzers []Analyzer) []Diagnostic {
	out, _ := RunWithTiming(m, analyzers)
	return out
}

// RuleTiming records one analyzer's wall-clock cost over a shared
// module load.
type RuleTiming struct {
	Rule    string
	Elapsed time.Duration
}

// RunWithTiming executes the analyzers like Run and additionally
// reports each rule's wall-clock time, in execution order. All rules
// share one type-checked module (and one CFG cache), so a rule's cost
// here is its marginal cost — what dropping it would actually save.
func RunWithTiming(m *Module, analyzers []Analyzer) ([]Diagnostic, []RuleTiming) {
	var out []Diagnostic
	timings := make([]RuleTiming, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		out = append(out, a.Run(m)...)
		timings = append(timings, RuleTiming{Rule: a.Name(), Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out, timings
}

// ---- shared helpers ----

// namedOf unwraps aliases and returns the named type behind t, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// typeKey identifies a named type as "pkgpath.Name".
func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isNumeric reports whether t's core type is an integer or float.
func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0
}

// commentHasMarker reports whether any comment group contains marker.
func commentHasMarker(marker string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return false
}

// recvBaseType resolves a method's receiver to its named base type.
func recvBaseType(fn *ast.FuncDecl, info *types.Info) *types.Named {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return namedOf(tv.Type)
}
