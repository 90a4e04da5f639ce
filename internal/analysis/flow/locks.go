package flow

import "go/ast"

// LockOp classifies one call as a lock acquisition or release.
type LockOp int

const (
	// OpNone marks a call that is not a lock operation.
	OpNone LockOp = iota
	// OpAcquire is X.Lock() / X.RLock().
	OpAcquire
	// OpRelease is X.Unlock() / X.RUnlock().
	OpRelease
)

// Classifier resolves a call to a lock identity and operation. An empty
// identity means the call is not a (nameable) lock operation. Analyzers
// choose the identity granularity; guardedby and lockbalance render the
// mutex expression ("q.mu").
type Classifier func(call *ast.CallExpr) (string, LockOp)

// Held values order the lattice per lock: absent < HeldDeferred <
// HeldPlain. "Badness" grows to the right — a plainly held lock still
// needs a release on the path; a deferred release covers every path
// from its registration to function exit.
const (
	// HeldDeferred: the lock is held and an Unlock for it is deferred.
	HeldDeferred uint8 = 1
	// HeldPlain: the lock is held with no deferred release registered.
	HeldPlain uint8 = 2
)

// LockSet maps lock identity to its held status at a program point.
// Absence means the lock is not held (on the analyzed paths).
type LockSet map[string]uint8

func (s LockSet) clone() LockSet {
	out := make(LockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Locks is the solved lock-state dataflow over one Graph.
type Locks struct {
	g        *Graph
	classify Classifier
	must     bool
	in       map[*Block]LockSet
	// earlyDefer tracks per-block entry the releases deferred before
	// their acquire ("defer mu.Unlock(); ...; mu.Lock()"), so the later
	// acquire lands already covered.
	earlyIn map[*Block]map[string]bool
}

// SolveLocks runs the lock-state analysis to fixpoint.
//
// must=true joins by intersection: a lock counts as held at a point
// only if every path to it holds the lock (the guardedby obligation —
// no false "held" after a branch that released). must=false joins by
// union, keeping the worse status per lock: a lock counts as held if
// some path holds it (the lockbalance over-approximation — an
// early-return path that leaks still reports).
//
// A deferred release does not remove the lock from the set — the
// unlock runs at function exit — but downgrades it to HeldDeferred, so
// exit-leak checks can tell covered locks from genuine leaks on a
// per-path basis.
func SolveLocks(g *Graph, classify Classifier, must bool) *Locks {
	lk := &Locks{
		g:        g,
		classify: classify,
		must:     must,
		in:       map[*Block]LockSet{},
		earlyIn:  map[*Block]map[string]bool{},
	}
	lk.in[g.Entry] = LockSet{}
	lk.earlyIn[g.Entry] = map[string]bool{}

	// Worklist over reverse-post-order for fast convergence.
	order := postorder(g)
	pos := map[*Block]int{}
	for i := len(order) - 1; i >= 0; i-- {
		pos[order[i]] = len(order) - 1 - i
	}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out, early := lk.transfer(blk, lk.in[blk], lk.earlyIn[blk])
		for _, s := range blk.Succs {
			if lk.join(s, out, early) && !queued[s] {
				queued[s] = true
				// Insert keeping rough RPO order (small graphs: linear scan).
				i := 0
				for i < len(work) && pos[work[i]] <= pos[s] {
					i++
				}
				work = append(work, nil)
				copy(work[i+1:], work[i:])
				work[i] = s
			}
		}
	}
	return lk
}

// join merges the predecessor out-state into succ's in-state and
// reports whether it changed.
func (lk *Locks) join(succ *Block, out LockSet, early map[string]bool) bool {
	cur, ok := lk.in[succ]
	if !ok {
		lk.in[succ] = out.clone()
		e := make(map[string]bool, len(early))
		for k := range early {
			e[k] = true
		}
		lk.earlyIn[succ] = e
		return true
	}
	changed := false
	if lk.must {
		// Intersection; keep the worse (higher) status for survivors.
		for k, v := range cur {
			ov, held := out[k]
			if !held {
				delete(cur, k)
				changed = true
			} else if ov > v {
				cur[k] = ov
				changed = true
			}
		}
	} else {
		// Union with worst status.
		for k, ov := range out {
			if v, held := cur[k]; !held || ov > v {
				cur[k] = ov
				changed = true
			}
		}
	}
	// Early defers join by union in both modes: covering a later
	// acquire on some path never claims a lock is held.
	ce := lk.earlyIn[succ]
	for k := range early {
		if !ce[k] {
			ce[k] = true
			changed = true
		}
	}
	return changed
}

// transfer applies one block's lock operations to a copy of the
// in-state and returns the out-state.
func (lk *Locks) transfer(blk *Block, in LockSet, early map[string]bool) (LockSet, map[string]bool) {
	out := in.clone()
	e := make(map[string]bool, len(early))
	for k := range early {
		e[k] = true
	}
	for _, n := range blk.Nodes {
		lk.apply(n, out, e)
	}
	return out, e
}

// apply updates the state for one node's lock operations. Function
// literals are opaque: their bodies run elsewhere.
func (lk *Locks) apply(n ast.Node, held LockSet, early map[string]bool) {
	if d, ok := n.(*ast.DeferStmt); ok {
		if id, op := lk.classify(d.Call); id != "" && op == OpRelease {
			if _, ok := held[id]; ok {
				held[id] = HeldDeferred
			} else {
				early[id] = true
			}
		}
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, op := lk.classify(call)
		if id == "" {
			return true
		}
		switch op {
		case OpAcquire:
			if early[id] {
				held[id] = HeldDeferred
			} else {
				held[id] = HeldPlain
			}
		case OpRelease:
			delete(held, id)
		case OpNone:
		}
		return true
	})
}

// In returns the solved lock state at the block's entry, or nil when
// the block is unreachable.
func (lk *Locks) In(blk *Block) LockSet {
	s, ok := lk.in[blk]
	if !ok {
		return nil
	}
	return s
}

// Walk replays the block's transfer from its solved in-state, calling
// visit with the state in effect immediately before each node. The
// callback must not retain the LockSet across calls (it mutates).
// Unreachable blocks are skipped.
func (lk *Locks) Walk(blk *Block, visit func(n ast.Node, held LockSet)) {
	in, ok := lk.in[blk]
	if !ok {
		return
	}
	held := in.clone()
	early := make(map[string]bool, len(lk.earlyIn[blk]))
	for k := range lk.earlyIn[blk] {
		early[k] = true
	}
	for _, n := range blk.Nodes {
		visit(n, held)
		lk.apply(n, held, early)
	}
}

// postorder returns the blocks reachable from Entry in DFS postorder.
func postorder(g *Graph) []*Block {
	var order []*Block
	seen := map[*Block]bool{}
	var visit func(*Block)
	visit = func(blk *Block) {
		seen[blk] = true
		for _, s := range blk.Succs {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, blk)
	}
	visit(g.Entry)
	return order
}
