package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"

	"storemlp/internal/analysis/flow"
)

// guardedByRe extracts the mutex name from a "// guarded by mu" field
// comment. The name is the sibling field holding the sync.Mutex or
// sync.RWMutex.
var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// GuardedBy enforces the documented locking discipline of the service
// layer: a struct field annotated "// guarded by <mu>" may only be read
// or written while that mutex is held on every control-flow path to the
// access — an X.Lock() (or X.RLock()) that reaches the access on all
// paths, not yet released, or a deferred X.Unlock(). Functions that run
// entirely under a lock taken by their caller opt out with a
// //storemlp:locked annotation.
//
// The check is path-sensitive over the flow package's CFG: held state
// merges by intersection at join points, so a mutex released on one
// branch no longer counts as held after the join, and a release at the
// bottom of a loop flows around the back edge into the next
// iteration's reads. It is still not interprocedural — it catches the
// bug class the -race detector only finds when the schedule cooperates,
// at compile time, every run.
type GuardedBy struct{}

// Name implements Analyzer.
func (GuardedBy) Name() string { return "guardedby" }

// Doc implements Analyzer.
func (GuardedBy) Doc() string {
	return `fields annotated "guarded by <mu>" are only accessed with that mutex held on every path`
}

// guardSet maps "pkgpath.TypeName" -> field name -> mutex field name.
type guardSet map[string]map[string]string

// Run implements Analyzer.
func (a GuardedBy) Run(m *Module) []Diagnostic {
	guards := collectGuards(m)
	if len(guards) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if hasDirective("locked", fn.Doc) {
					continue
				}
				w := &guardWalker{m: m, pkg: pkg, guards: guards}
				w.flowRun(fn)
				out = append(out, w.out...)
			}
		}
	}
	return out
}

// collectGuards scans every struct declaration for guarded-by field
// annotations.
func collectGuards(m *Module) guardSet {
	guards := guardSet{}
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					obj := pkg.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					named := namedOf(obj.Type())
					if named == nil {
						continue
					}
					for _, field := range st.Fields.List {
						mu := guardAnnotation(field)
						if mu == "" {
							continue
						}
						key := typeKey(named)
						if guards[key] == nil {
							guards[key] = map[string]string{}
						}
						for _, name := range field.Names {
							guards[key][name.Name] = mu
						}
					}
				}
			}
		}
	}
	return guards
}

func guardAnnotation(field *ast.Field) string {
	for _, g := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if match := guardedByRe.FindStringSubmatch(c.Text); match != nil {
				return match[1]
			}
		}
	}
	return ""
}

// guardWalker checks the guarded accesses of one function body against
// the held mutexes the CFG's lock lattice proves at each access.
type guardWalker struct {
	m      *Module
	pkg    *Package
	guards guardSet
	out    []Diagnostic
}

// lockClassifier classifies call as a mutex acquire/release for the
// flow package: lock identity is the rendered mutex expression
// ("q.mu"), matching the per-instance spelling the guard annotations
// use.
func lockClassifier(call *ast.CallExpr) (string, flow.LockOp) {
	if len(call.Args) != 0 {
		return "", flow.OpNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", flow.OpNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return renderExpr(sel.X), flow.OpAcquire
	case "Unlock", "RUnlock":
		return renderExpr(sel.X), flow.OpRelease
	}
	return "", flow.OpNone
}

// flowRun checks fn path-sensitively: each body (the function's own and
// every nested literal's, which may run on another goroutine) gets its
// own CFG and must-held lock solution, and every guarded access is
// checked against the state the lattice proves at that point.
func (w *guardWalker) flowRun(fn *ast.FuncDecl) {
	for _, body := range funcBodies(fn) {
		g := w.m.CFG(body)
		lk := flow.SolveLocks(g, lockClassifier, true)
		for _, blk := range g.Blocks {
			lk.Walk(blk, func(n ast.Node, held flow.LockSet) {
				ast.Inspect(n, func(c ast.Node) bool {
					switch x := c.(type) {
					case *ast.FuncLit:
						return false // analyzed as its own body
					case *ast.SelectorExpr:
						w.checkAccess(x, func(mu string) bool {
							_, ok := held[mu]
							return ok
						})
					}
					return true
				})
			})
		}
	}
}

// checkAccess reports x.f when f is a guarded field and the guarding
// mutex (rendered against the same base expression x) is not held.
func (w *guardWalker) checkAccess(sel *ast.SelectorExpr, held func(string) bool) {
	selection, ok := w.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return
	}
	fields := w.guards[typeKey(named)]
	if fields == nil {
		return
	}
	mu, guarded := fields[sel.Sel.Name]
	if !guarded {
		return
	}
	required := renderExpr(sel.X) + "." + mu
	if held(required) {
		return
	}
	w.out = append(w.out, Diagnostic{
		Pos:  w.m.Fset.Position(sel.Sel.Pos()),
		Rule: "guardedby",
		Message: fmt.Sprintf("field %s.%s accessed without holding %s (lock it, or annotate the function //storemlp:locked)",
			named.Obj().Name(), sel.Sel.Name, required),
	})
}

// renderExpr gives the textual spelling of a mutex/receiver expression
// chain; anything beyond ident/selector chains renders opaque.
func renderExpr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderExpr(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(x.X)
	case *ast.StarExpr:
		return renderExpr(x.X)
	}
	return "?"
}
