package analysis

import (
	"go/ast"

	"storemlp/internal/analysis/flow"
)

// CFG returns the memoized control-flow graph of a function or literal
// body. Five analyzers (guardedby, ctxpoll, lockbalance, sharedcapture,
// closeall) walk the same bodies; sharing one graph per
// body — like sharing one type-checked load per run — keeps the suite's
// cost per rule marginal. Run executes analyzers sequentially, so the
// cache needs no lock.
func (m *Module) CFG(body *ast.BlockStmt) *flow.Graph {
	if m.cfgs == nil {
		m.cfgs = map[*ast.BlockStmt]*flow.Graph{}
	}
	if g, ok := m.cfgs[body]; ok {
		return g
	}
	g := flow.New(body)
	m.cfgs[body] = g
	return g
}

// funcBodies returns fn's body plus the bodies of every function
// literal nested inside it, each paired with the literal (nil for the
// outer body). A literal may run on another goroutine or after its
// frame returned, so path-sensitive analyzers give each body its own
// graph with an empty entry state instead of inlining it.
func funcBodies(fn *ast.FuncDecl) []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}
