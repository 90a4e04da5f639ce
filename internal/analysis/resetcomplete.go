package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ResetComplete verifies that recycled objects are actually recycled:
// for every struct type with a Reset/reset method (plus explicitly
// configured reset-equivalents such as epoch.Engine.Reconfigure), the
// method must reassign every field of the struct, or the field must
// carry a //storemlp:keep marker declaring that stale contents are
// intentionally preserved (geometry constants, buffers whose contents
// are overwritten before use).
//
// The invariant: sim's engine free list and Engine.Reconfigure recycle
// engines — and through them caches, predictors, SMACs, rings and
// traffic sources — across simulation runs. A field the reset method forgets is state
// from a previous request leaking into the next one: the stale-state
// bug class that engine recycling introduced, invisible to the
// compiler and to any single-run test.
type ResetComplete struct {
	// Methods maps "pkgpath.TypeName" to the name of a method that must
	// also satisfy the reset contract, beyond the Reset/reset naming
	// convention (e.g. epoch.Engine -> Reconfigure).
	Methods map[string]string
}

// Name implements Analyzer.
func (ResetComplete) Name() string { return "resetcomplete" }

// Doc implements Analyzer.
func (ResetComplete) Doc() string {
	return "Reset methods of recycled types must reassign every field (or mark it //storemlp:keep)"
}

// Run implements Analyzer.
func (a ResetComplete) Run(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil {
					continue
				}
				recv := recvBaseType(fn, pkg.Info)
				if recv == nil {
					continue
				}
				if !a.isResetMethod(fn, recv) {
					continue
				}
				if !isPointerRecv(fn, pkg.Info) {
					continue // a value receiver cannot reset anything
				}
				out = append(out, a.check(m, pkg, fn, recv)...)
			}
		}
	}
	return out
}

// isResetMethod reports whether fn is subject to the reset contract:
// named Reset/reset with no parameters and no results, or explicitly
// configured for its receiver type.
func (a ResetComplete) isResetMethod(fn *ast.FuncDecl, recv *types.Named) bool {
	name := fn.Name.Name
	if name == "Reset" || name == "reset" {
		return fn.Type.Params.NumFields() == 0 && fn.Type.Results.NumFields() == 0
	}
	return a.Methods[typeKey(recv)] == name
}

func isPointerRecv(fn *ast.FuncDecl, info *types.Info) bool {
	tv, ok := info.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	_, isPtr := tv.Type.(*types.Pointer)
	return isPtr
}

// check verifies one reset method against its receiver's field list.
func (a ResetComplete) check(m *Module, pkg *Package, fn *ast.FuncDecl, recv *types.Named) []Diagnostic {
	st, fields := structFieldsAST(pkg, recv.Obj().Name())
	if st == nil {
		return nil
	}
	covered := map[string]bool{}
	visited := map[string]bool{}
	a.cover(pkg, fn, covered, visited)
	if covered["*"] {
		return nil // whole-receiver assignment resets everything
	}
	var out []Diagnostic
	for _, field := range fields {
		if hasDirective("keep", field.Doc, field.Comment) {
			continue
		}
		for _, name := range field.Names {
			if covered[name.Name] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:  m.Fset.Position(name.Pos()),
				Rule: a.Name(),
				Message: fmt.Sprintf("field %s.%s is not reassigned by %s (stale state survives recycling; reset it or mark the field //storemlp:keep)",
					recv.Obj().Name(), name.Name, fn.Name.Name),
			})
		}
	}
	return out
}

// cover records which receiver fields fn reassigns, following calls to
// other methods on the same receiver (e.g. a clearFastPaths helper).
func (a ResetComplete) cover(pkg *Package, fn *ast.FuncDecl, covered, visited map[string]bool) {
	if visited[fn.Name.Name] || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List[0].Names) == 0 {
		return
	}
	visited[fn.Name.Name] = true
	recvObj := pkg.Info.Defs[fn.Recv.List[0].Names[0]]
	if recvObj == nil {
		return
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pkg.Info.Uses[id] == recvObj
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				coverLHS(lhs, isRecv, covered)
			}
		case *ast.CallExpr:
			// clear(recv.f) empties a map or slice in place.
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "clear" && len(st.Args) == 1 {
				if f, ok := fieldOfRecv(st.Args[0], isRecv); ok {
					covered[f] = true
				}
			}
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// recv.f.Reset() resets the field's object in place.
			if f, ok := fieldOfRecv(sel.X, isRecv); ok &&
				(sel.Sel.Name == "Reset" || sel.Sel.Name == "reset") {
				covered[f] = true
			}
			// recv.helper() may reassign fields; follow it.
			if isRecv(sel.X) {
				if helper := findMethod(pkg, sel.Sel.Name, fn); helper != nil {
					a.cover(pkg, helper, covered, visited)
				}
			}
		}
		return true
	})
}

// coverLHS marks the receiver field (if any) that an assignment target
// resets: recv.f = v, *recv = T{} (all fields), and element writes
// recv.f[i] = v (contents cleared in place, allocation kept).
func coverLHS(lhs ast.Expr, isRecv func(ast.Expr) bool, covered map[string]bool) {
	switch e := lhs.(type) {
	case *ast.StarExpr:
		if isRecv(e.X) {
			covered["*"] = true
		}
	case *ast.SelectorExpr:
		if isRecv(e.X) {
			covered[e.Sel.Name] = true
		}
	case *ast.IndexExpr:
		if f, ok := fieldOfRecv(e.X, isRecv); ok {
			covered[f] = true
		}
	case *ast.ParenExpr:
		coverLHS(e.X, isRecv, covered)
	}
}

// fieldOfRecv returns the field name when e is recv.<field>.
func fieldOfRecv(e ast.Expr, isRecv func(ast.Expr) bool) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !isRecv(sel.X) {
		return "", false
	}
	return sel.Sel.Name, true
}

// findMethod locates another method of caller's receiver type in the
// same package.
func findMethod(pkg *Package, name string, caller *ast.FuncDecl) *ast.FuncDecl {
	callerRecv := recvBaseType(caller, pkg.Info)
	if callerRecv == nil {
		return nil
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != name {
				continue
			}
			if recvBaseType(fn, pkg.Info) == callerRecv {
				return fn
			}
		}
	}
	return nil
}

// structFieldsAST finds the struct type declaration for name in pkg and
// returns its AST node plus the flattened field list.
func structFieldsAST(pkg *Package, name string) (*ast.StructType, []*ast.Field) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st, st.Fields.List
				}
			}
		}
	}
	return nil, nil
}
