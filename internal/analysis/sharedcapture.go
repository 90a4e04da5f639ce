package analysis

import (
	"fmt"
	"go/ast"
	"go/types"

	"storemlp/internal/analysis/flow"
)

// SharedCapture checks goroutine closures for plain writes to captured
// variables — the data race worker fan-outs make easiest to write. A `go func() { ... }` literal that assigns to a variable it
// captured from the enclosing function races with the spawner (and
// with its sibling workers) unless the write is disciplined. Four
// disciplines are recognized:
//
//   - per-worker slot: results[i] = ... where every index is the
//     worker's own parameter, a literal-local variable, or a Go 1.22
//     per-iteration loop variable — each goroutine owns a distinct
//     element, the worker fan-out/merge idiom;
//   - mutex: the write happens with a lock held on every path
//     (the flow lattice must prove it, same as guardedby);
//   - channel/atomic: sends and sync/atomic calls are not plain
//     writes, so they pass untouched;
//   - ownership hand-off: //storemlp:owned on the go statement, on the
//     variable's declaration, or on the function doc declares the
//     spawner never touches the variable again.
//
// Reads are deliberately out of scope: flagging them would bury the
// write-side races this rule exists to catch.
type SharedCapture struct{}

// Name implements Analyzer.
func (SharedCapture) Name() string { return "sharedcapture" }

// Doc implements Analyzer.
func (SharedCapture) Doc() string {
	return "go-closures may not plainly write captured variables (use a mutex, a per-worker slot, or //storemlp:owned)"
}

// Run implements Analyzer.
func (a SharedCapture) Run(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			owned := annotationLines(m, f, "owned")
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if hasDirective("owned", fn.Doc) {
					continue
				}
				loopVars := perIterationVars(pkg, fn.Body)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					lit, ok := gs.Call.Fun.(*ast.FuncLit)
					if !ok {
						return true
					}
					line := m.Fset.Position(gs.Pos()).Line
					if owned[line] || owned[line-1] {
						return true
					}
					out = append(out, a.checkClosure(m, pkg, lit, owned, loopVars)...)
					return true
				})
			}
		}
	}
	return out
}

// checkClosure reports the undisciplined writes one go-literal makes to
// its captures.
func (a SharedCapture) checkClosure(m *Module, pkg *Package, lit *ast.FuncLit, owned map[int]bool, loopVars map[*types.Var]bool) []Diagnostic {
	captured := map[*types.Var]bool{}
	for _, v := range flow.FreeVars(pkg.Info, lit) {
		captured[v] = true
	}
	if len(captured) == 0 {
		return nil
	}
	// Lock state at each statement of the literal's own body; writes in
	// literals nested deeper belong to those literals' own checks.
	g := m.CFG(lit.Body)
	lk := flow.SolveLocks(g, lockClassifier, true)
	heldAt := map[ast.Node]bool{}
	for _, blk := range g.Blocks {
		lk.Walk(blk, func(n ast.Node, held flow.LockSet) {
			heldAt[n] = len(held) > 0
		})
	}
	var out []Diagnostic
	for _, w := range flow.Writes(pkg.Info, lit.Body) {
		if !captured[w.Var] {
			continue
		}
		if insideNestedLit(lit, w.Node) {
			continue
		}
		if owned[m.Fset.Position(w.Var.Pos()).Line] {
			continue // the variable's declaration hands ownership off
		}
		if heldAt[w.Node] {
			continue // proven under a lock on every path
		}
		if len(w.Indexes) > 0 && workerSlot(pkg, lit, w.Indexes, loopVars) {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  m.Fset.Position(w.Target.Pos()),
			Rule: a.Name(),
			Message: fmt.Sprintf("go-closure writes captured variable %s without synchronization (guard it with a mutex, give each worker its own slot, or annotate //storemlp:owned)",
				w.Var.Name()),
		})
	}
	return out
}

// insideNestedLit reports whether n sits inside a function literal
// nested below lit's own body.
func insideNestedLit(lit *ast.FuncLit, n ast.Node) bool {
	inside := false
	ast.Inspect(lit.Body, func(c ast.Node) bool {
		if inside {
			return false
		}
		inner, ok := c.(*ast.FuncLit)
		if !ok {
			return true
		}
		if n.Pos() >= inner.Pos() && n.End() <= inner.End() {
			inside = true
		}
		return false // literal bodies are opaque either way
	})
	return inside
}

// workerSlot reports whether every index on the write's path is a
// variable the goroutine owns: declared inside the literal (a
// parameter or local) or a per-iteration loop variable of the spawning
// function (distinct per iteration since Go 1.22).
func workerSlot(pkg *Package, lit *ast.FuncLit, indexes []ast.Expr, loopVars map[*types.Var]bool) bool {
	for _, idx := range indexes {
		id, ok := idx.(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return false
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			continue // the worker's own parameter or local
		}
		if loopVars[v] {
			continue
		}
		return false
	}
	return true
}

// perIterationVars collects the loop variables declared by for and
// range statements under root — per-iteration bindings, so a closure
// capturing one sees a value no other iteration writes.
func perIterationVars(pkg *Package, root ast.Node) map[*types.Var]bool {
	vars := map[*types.Var]bool{}
	def := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			vars[v] = true
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt:
			if init, ok := st.Init.(*ast.AssignStmt); ok && init.Tok.String() == ":=" {
				for _, lhs := range init.Lhs {
					def(lhs)
				}
			}
		case *ast.RangeStmt:
			if st.Tok.String() == ":=" {
				def(st.Key)
				def(st.Value)
			}
		}
		return true
	})
	return vars
}
