// Package flow is the dataflow core under storemlpvet's path-sensitive
// analyzers: a control-flow-graph builder over go/ast, a defer-aware
// lock-state lattice with configurable join semantics (must/may), and
// def-use helpers for captured variables.
//
// The CFG is built per function body from the syntax alone (no SSA, no
// external packages): basic blocks hold statements and control
// expressions in execution order, edges model branches, loops (with
// back edges), early returns, labeled break/continue, goto and
// fallthrough. Function literals are NOT inlined — a closure may run on
// another goroutine or after its enclosing frame returned, so analyzers
// build a separate graph per literal.
//
// The design follows the reduction-theorem school of the store-buffer
// literature: prove the ordering/locking discipline once, offline, on
// every path — instead of hoping the race detector's schedule visits
// the path with the bug.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of
// statements and control expressions.
type Block struct {
	// Index is the block's position in Graph.Blocks (creation order;
	// Entry is 0, Exit is 1).
	Index int
	// Nodes are the block's statements and control expressions in
	// execution order. Control expressions (if/for conditions, switch
	// tags, range key/value) appear as bare ast.Expr nodes.
	Nodes []ast.Node
	// Succs are the successor blocks. When Cond is non-nil there are
	// exactly two: Succs[0] is the true edge, Succs[1] the false edge.
	Succs []*Block
	// Cond, when non-nil, is the boolean expression the block branches
	// on (an if or for condition).
	Cond ast.Expr
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is where control enters; Exit is the single synthetic block
	// every return and the fall-off-the-end path reach.
	Entry, Exit *Block
	// Blocks lists every block, including unreachable ones (code after
	// a return keeps a block with no predecessors).
	Blocks []*Block
	// Loops maps each for/range statement to its head block — the block
	// every iteration passes through (holding the loop condition, or
	// the range step). Back edges are the head's in-loop predecessors.
	Loops map[ast.Stmt]*Block
	// Defers lists the defer statements in source order. Their calls
	// run at function exit; the lock lattice models the registration
	// point flow-sensitively.
	Defers []*ast.DeferStmt
}

// New builds the CFG of a function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{Loops: map[ast.Stmt]*Block{}}
	b := &builder{g: g, labels: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmts(body.List)
	b.link(b.cur, g.Exit)
	b.patchGotos()
	return g
}

// breakTarget is one enclosing breakable/continuable construct.
type breakTarget struct {
	label string // enclosing label, if any
	brk   *Block // where break jumps
	cont  *Block // where continue jumps (nil for switch/select)
}

type builder struct {
	g   *Graph
	cur *Block
	// targets is the stack of enclosing loops/switches/selects.
	targets []breakTarget
	// pendingLabel labels the next loop/switch/select statement.
	pendingLabel string
	// fallthroughTo is the next case body while building a switch case.
	fallthroughTo *Block
	// labels maps label names to their statement's block (goto targets).
	labels map[string]*Block
	// gotos are forward gotos patched once all labels are known.
	gotos []pendingGoto
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.add(st.Cond)
		cond := b.cur
		cond.Cond = st.Cond
		then := b.newBlock()
		join := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmt(st.Body)
		b.link(b.cur, join)
		if st.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(st.Else)
			b.link(b.cur, join)
		} else {
			b.link(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		head := b.newBlock()
		b.link(b.cur, head)
		after := b.newBlock()
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
			head.Cond = st.Cond
		}
		body := b.newBlock()
		b.link(head, body)
		if st.Cond != nil {
			b.link(head, after)
		}
		cont := head
		if st.Post != nil {
			cont = b.newBlock()
		}
		b.targets = append(b.targets, breakTarget{label: label, brk: after, cont: cont})
		b.cur = body
		b.stmt(st.Body)
		b.targets = b.targets[:len(b.targets)-1]
		b.link(b.cur, cont)
		if st.Post != nil {
			b.cur = cont
			b.stmt(st.Post)
			b.link(b.cur, head)
		}
		b.g.Loops[st] = head
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(st.X) // evaluated once, before the loop
		head := b.newBlock()
		b.link(b.cur, head)
		// The range step: key/value appear as (written) expressions.
		if st.Key != nil {
			head.Nodes = append(head.Nodes, st.Key)
		}
		if st.Value != nil {
			head.Nodes = append(head.Nodes, st.Value)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.link(head, body)
		b.link(head, after)
		b.targets = append(b.targets, breakTarget{label: label, brk: after, cont: head})
		b.cur = body
		b.stmt(st.Body)
		b.targets = b.targets[:len(b.targets)-1]
		b.link(b.cur, head)
		b.g.Loops[st] = head
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.buildSwitch(label, st.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.add(st.Assign)
		b.buildSwitch(label, st.Body.List, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		src := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, breakTarget{label: label, brk: after})
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.link(src, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmts(cc.Body)
			b.link(b.cur, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		if len(st.Body.List) == 0 {
			b.link(src, after)
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(st)
		b.link(b.cur, b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if t := b.findTarget(st.Label, false); t != nil {
				b.link(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.findTarget(st.Label, true); t != nil {
				b.link(b.cur, t)
			}
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name})
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.link(b.cur, b.fallthroughTo)
			}
		}
		b.cur = b.newBlock() // unreachable continuation

	case *ast.LabeledStmt:
		blk := b.newBlock()
		b.link(b.cur, blk)
		b.cur = blk
		b.labels[st.Label.Name] = blk
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""

	case *ast.DeferStmt:
		b.add(st)
		b.g.Defers = append(b.g.Defers, st)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Simple statements: expr, assign, incdec, send, go, decl.
		b.add(s)
	}
}

// buildSwitch wires the case clauses of a (type) switch: each clause
// branches from the dispatch block and falls to the join; fallthrough
// jumps to the next clause's body.
func (b *builder) buildSwitch(label string, clauses []ast.Stmt, _ *Block) {
	src := b.cur
	after := b.newBlock()
	b.targets = append(b.targets, breakTarget{label: label, brk: after})
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.link(src, blocks[i])
		if len(c.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	savedFT := b.fallthroughTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(clauses) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmts(cc.Body)
		b.link(b.cur, after)
	}
	b.fallthroughTo = savedFT
	b.targets = b.targets[:len(b.targets)-1]
	if !hasDefault {
		b.link(src, after)
	}
	b.cur = after
}

// takeLabel consumes the pending label for the statement being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findTarget resolves a break (continue=false) or continue target,
// optionally labeled. Continue skips switch/select frames.
func (b *builder) findTarget(label *ast.Ident, isContinue bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if isContinue && t.cont == nil {
			continue // switch/select: continue belongs to an outer loop
		}
		if label != nil && t.label != label.Name {
			continue
		}
		if isContinue {
			return t.cont
		}
		return t.brk
	}
	return nil
}

func (b *builder) patchGotos() {
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil {
			b.link(g.from, t)
		}
	}
}

// Reachable returns the set of blocks reachable from Entry.
func (g *Graph) Reachable() map[*Block]bool { return g.reachAvoiding(nil) }

// reachAvoiding returns the blocks reachable from Entry on paths that
// never enter avoid.
func (g *Graph) reachAvoiding(avoid *Block) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// LoopBody returns the natural-loop block set of the loop statement:
// the head plus every block that can reach the head's back edges
// without passing through the head. Returns nil for unknown statements.
func (g *Graph) LoopBody(loop ast.Stmt) map[*Block]bool {
	head := g.Loops[loop]
	if head == nil {
		return nil
	}
	reach := g.Reachable()
	preds := map[*Block][]*Block{}
	for _, blk := range g.Blocks {
		if !reach[blk] {
			continue
		}
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
	}
	// Back edges come from the predecessors head dominates: those Entry
	// cannot reach once head is removed. That head reaches a predecessor
	// is not enough — inside an outer loop, head also reaches the block
	// that enters it.
	outside := g.reachAvoiding(head)
	body := map[*Block]bool{head: true}
	var tails []*Block
	for _, p := range preds[head] {
		if !outside[p] {
			tails = append(tails, p)
		}
	}
	// Natural loop: reverse-reachable from the tails without crossing
	// the head.
	stack := append([]*Block(nil), tails...)
	for _, t := range tails {
		body[t] = true
	}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == head {
			continue
		}
		for _, p := range preds[blk] {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	return body
}
