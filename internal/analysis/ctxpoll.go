package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"storemlp/internal/analysis/flow"
)

// CtxPoll enforces the cancellation contract of the batched trace
// pipeline: any loop in a context-taking function that consumes trace
// batches (trace.Fill / Next / ReadBatch) must poll the context — a
// ctx.Err() call or ctx.Done() receive — so a cancelled request stops
// within one batch (the 8192-instruction bound the service layer
// promises) instead of running a multi-billion instruction replay to
// completion.
//
// The check is path-sensitive over the flow package's CFG: every
// iteration path that reaches a consuming call and loops back must pass
// a poll. A poll parked on a rare branch ("if debug { ctx.Err() }")
// does not satisfy the contract — the common iteration path never
// checks — while the engine's batch-refill pattern ("if bi == bn {
// poll; Fill }") does: the paths that skip the poll also skip the
// consumption.
//
// Calls are attributed to their innermost enclosing loop: an inner
// stall loop with no trace consumption needs no poll, and a nested
// consuming loop is checked on its own.
type CtxPoll struct {
	// TracePkg is the import path of the trace package whose consuming
	// calls (Fill, Next, ReadBatch) mark a loop as batch-iterating.
	TracePkg string
}

// Name implements Analyzer.
func (CtxPoll) Name() string { return "ctxpoll" }

// Doc implements Analyzer.
func (CtxPoll) Doc() string {
	return "loops consuming trace batches in context-taking functions must poll ctx"
}

// Run implements Analyzer.
func (a CtxPoll) Run(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ctxObj := contextParam(pkg, fn)
				if ctxObj == nil {
					continue
				}
				report := func(pos token.Pos) {
					out = append(out, Diagnostic{
						Pos:  m.Fset.Position(pos),
						Rule: a.Name(),
						Message: fmt.Sprintf("loop consumes trace batches without polling %s (check %s.Err() every batch so cancellation lands within the 8192-inst bound)",
							ctxObj.Name(), ctxObj.Name()),
					})
				}
				for _, body := range funcBodies(fn) {
					g := m.CFG(body)
					for _, loop := range sortedLoops(g) {
						lb, pos := loopBody(loop)
						if lb == nil || !a.consumesTrace(pkg, lb) {
							continue
						}
						if !a.polledOnConsumePaths(pkg, g, loop, ctxObj) {
							report(pos)
						}
					}
				}
			}
		}
	}
	return out
}

// sortedLoops returns the graph's loop statements in source order.
func sortedLoops(g *flow.Graph) []ast.Stmt {
	loops := make([]ast.Stmt, 0, len(g.Loops))
	for s := range g.Loops {
		loops = append(loops, s)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Pos() < loops[j].Pos() })
	return loops
}

// polledOnConsumePaths reports whether every iteration path of the loop
// that consumes trace batches also polls the context: there must be no
// cycle head -> consume -> head through the natural loop that avoids
// every polling block. Consumption inside nested loops is excluded —
// those loops carry their own obligation.
func (a CtxPoll) polledOnConsumePaths(pkg *Package, g *flow.Graph, loop ast.Stmt, ctxObj types.Object) bool {
	set := g.LoopBody(loop)
	head := g.Loops[loop]
	if set == nil || head == nil {
		return true // unreachable loop: nothing executes
	}
	// Blocks owned by nested loops do not consume on this loop's behalf.
	nested := map[*flow.Block]bool{}
	for other, oh := range g.Loops {
		if other == loop || !set[oh] {
			continue
		}
		for blk := range g.LoopBody(other) {
			if blk != head {
				nested[blk] = true
			}
		}
	}
	poll := map[*flow.Block]bool{}
	consume := map[*flow.Block]bool{}
	for blk := range set {
		for _, n := range blk.Nodes {
			if nodePolls(pkg, n, ctxObj) {
				poll[blk] = true
			}
			if !nested[blk] && nodeConsumes(a, pkg, n) {
				consume[blk] = true
			}
		}
	}
	if len(consume) == 0 {
		return true
	}
	if poll[head] {
		return true // every iteration passes the head
	}
	// Forward: blocks reachable from the head without crossing a poll.
	fwd := reachAvoiding(head, set, poll, func(b *flow.Block) []*flow.Block { return b.Succs })
	// Backward: blocks that reach the head without crossing a poll.
	preds := map[*flow.Block][]*flow.Block{}
	for blk := range set {
		for _, s := range blk.Succs {
			if set[s] {
				preds[s] = append(preds[s], blk)
			}
		}
	}
	bwd := reachAvoiding(head, set, poll, func(b *flow.Block) []*flow.Block { return preds[b] })
	for blk := range consume {
		if poll[blk] {
			continue
		}
		if (blk == head) || (fwd[blk] && bwd[blk]) {
			return false // an unpolled consuming iteration exists
		}
	}
	return true
}

// reachAvoiding walks edges from start within set, never entering
// blocks in avoid; start itself is not subject to avoid.
func reachAvoiding(start *flow.Block, set, avoid map[*flow.Block]bool, next func(*flow.Block) []*flow.Block) map[*flow.Block]bool {
	seen := map[*flow.Block]bool{}
	stack := []*flow.Block{start}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range next(blk) {
			if !set[n] || avoid[n] || seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, n)
		}
	}
	return seen
}

// nodeConsumes reports whether the node (outside function literals)
// calls a trace consumer.
func nodeConsumes(a CtxPoll, pkg *Package, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		switch x := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if a.isTraceCall(pkg, x) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// nodePolls reports whether the node (outside function literals)
// contains ctx.Err or ctx.Done on the given context object.
func nodePolls(pkg *Package, n ast.Node, ctxObj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := c.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && pkg.Info.Uses[id] == ctxObj {
			found = true
		}
		return true
	})
	return found
}

// contextParam returns the function's context.Context parameter object,
// or nil.
func contextParam(pkg *Package, fn *ast.FuncDecl) types.Object {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pkg.Info.Defs[name]
			if obj != nil && obj.Type() != nil && obj.Type().String() == "context.Context" {
				return obj
			}
		}
	}
	return nil
}

// loopBody unwraps a for/range statement into its body and position.
func loopBody(n ast.Node) (*ast.BlockStmt, token.Pos) {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body, l.For
	case *ast.RangeStmt:
		return l.Body, l.For
	}
	return nil, 0
}

// consumesTrace reports whether the loop body itself (excluding nested
// loops and function literals, which own their calls) calls a trace
// consumer.
func (a CtxPoll) consumesTrace(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	for _, s := range body.List {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if a.isTraceCall(pkg, x) {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}

// isTraceCall reports whether call resolves to TracePkg's Fill, Next or
// ReadBatch — as a method (including through an interface such as
// Source) or a package-level function.
func (a CtxPoll) isTraceCall(pkg *Package, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel] // qualified call: trace.Fill(...)
		}
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != a.TracePkg {
		return false
	}
	switch obj.Name() {
	case "Fill", "Next", "ReadBatch":
		return true
	}
	return false
}
