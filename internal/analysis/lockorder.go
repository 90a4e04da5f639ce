package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"storemlp/internal/analysis/flow"
)

// LockOrder builds a static lock-acquisition graph over the whole
// module and reports cycles as potential deadlocks. Held state is
// path-sensitive over the flow package's CFG with may-join semantics: a
// mutex is "held" at a point if some path to it acquired the mutex
// without releasing it (a deferred unlock holds to function end), so a
// branch-dependent acquisition still orders every lock taken after the
// join, not just locks taken inside the same branch. Acquiring lock B while lock A is held adds the
// edge A → B.
//
// Locks are identified at type granularity — "pkg.Type.field" for a
// mutex struct field, "pkg.var" for a package-level mutex — because a
// deadlock needs two goroutines taking the same two locks in opposite
// orders, and goroutines agree on types, not on variable spellings.
// Acquiring a lock of the same identity while one is already held is a
// self-cycle: two instances locked in address-dependent order by
// concurrent goroutines deadlock just like two distinct locks do.
//
// A declaration comment //storemlp:lockafter(<mu>) on a mutex field or
// variable declares that this lock is always acquired after <mu>
// (matched against the full identity or its suffix). Declared edges
// are the intended order: they are removed from the graph before cycle
// detection, and an observed acquisition in the opposite direction is
// reported immediately as an ordering violation.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "the static lock-acquisition graph is acyclic (declare intended order with //storemlp:lockafter)"
}

// lockEdge is one observed nested acquisition: from held to acquired.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// Run implements Analyzer.
func (a LockOrder) Run(m *Module) []Diagnostic {
	after := collectLockAfter(m)
	var edges []lockEdge
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				w := &orderWalker{pkg: pkg, edges: &edges}
				w.flowRun(m, fn)
			}
		}
	}

	var out []Diagnostic
	// Ordering violations: an edge that contradicts a declaration.
	graph := map[string]map[string]token.Pos{}
	for _, e := range edges {
		if declaredAfter(after, e.from, e.to) {
			// e.from declares lockafter(e.to), but we saw from → to.
			out = append(out, Diagnostic{
				Pos:  m.Fset.Position(e.pos),
				Rule: a.Name(),
				Message: fmt.Sprintf("%s acquired while %s is held, but %s declares //storemlp:lockafter(%s)",
					shortLock(e.to), shortLock(e.from), shortLock(e.from), shortLock(e.to)),
			})
			continue
		}
		if declaredAfter(after, e.to, e.from) {
			continue // blessed: e.to is declared to come after e.from
		}
		if graph[e.from] == nil {
			graph[e.from] = map[string]token.Pos{}
		}
		if old, ok := graph[e.from][e.to]; !ok || e.pos < old {
			graph[e.from][e.to] = e.pos
		}
	}

	for _, cyc := range lockCycles(graph) {
		names := make([]string, len(cyc)+1)
		for i, id := range cyc {
			names[i] = shortLock(id)
		}
		names[len(cyc)] = shortLock(cyc[0])
		pos := graph[cyc[0]][cyc[1%len(cyc)]]
		if len(cyc) == 1 {
			pos = graph[cyc[0]][cyc[0]]
		}
		out = append(out, Diagnostic{
			Pos:  m.Fset.Position(pos),
			Rule: a.Name(),
			Message: fmt.Sprintf("lock-acquisition cycle %s (potential deadlock; fix the order or declare it with //storemlp:lockafter)",
				strings.Join(names, " -> ")),
		})
	}
	return out
}

// declaredAfter reports whether lock b carries a lockafter declaration
// matching lock a ("b is acquired after a").
func declaredAfter(after map[string][]string, b, a string) bool {
	for _, spec := range after[b] {
		if spec == a || strings.HasSuffix(a, "."+spec) {
			return true
		}
	}
	return false
}

// shortLock renders a lock identity without its package-path prefix
// ("storemlp/internal/sim.enginePool.mu" -> "sim.enginePool.mu").
func shortLock(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// collectLockAfter gathers //storemlp:lockafter declarations from
// mutex-typed struct fields and package-level variables.
func collectLockAfter(m *Module) map[string][]string {
	after := map[string][]string{}
	add := func(id string, groups ...*ast.CommentGroup) {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				// A malformed directive fails to parse and simply
				// contributes no order declarations; the grammar itself
				// is fuzzed in directive_test.go.
				ds, err := ParseDirectives(c.Text)
				if err != nil {
					continue
				}
				for _, d := range ds {
					if d.Name == "lockafter" {
						after[id] = append(after[id], d.Args...)
					}
				}
			}
		}
	}
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						obj := pkg.Info.Defs[sp.Name]
						named := namedOf(objType(obj))
						if named == nil {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								add(typeKey(named)+"."+name.Name, field.Doc, field.Comment)
							}
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							add(pkg.Path+"."+name.Name, gd.Doc, sp.Doc, sp.Comment)
						}
					}
				}
			}
		}
	}
	return after
}

// objType returns obj.Type() tolerating nil objects.
func objType(obj types.Object) types.Type {
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// orderWalker collects the acquisition edges of one function body.
type orderWalker struct {
	pkg   *Package
	edges *[]lockEdge
}

// flowRun collects acquisition edges path-sensitively: each body (the
// function's own and every nested literal's) gets its own CFG and
// may-held lock solution, and every acquisition draws an edge from each
// lock held on some path to that point.
func (w *orderWalker) flowRun(m *Module, fn *ast.FuncDecl) {
	for _, body := range funcBodies(fn) {
		g := m.CFG(body)
		lk := flow.SolveLocks(g, w.lockIdentity, false)
		for _, blk := range g.Blocks {
			lk.Walk(blk, func(n ast.Node, held flow.LockSet) {
				// Replay the node's own lock operations in order: a node
				// may both release and acquire (rare, but a compound
				// statement can), so track the in-node state locally.
				local := make(map[string]bool, len(held))
				for id := range held {
					local[id] = true
				}
				ast.Inspect(n, func(c ast.Node) bool {
					if _, ok := c.(*ast.FuncLit); ok {
						return false // analyzed as its own body
					}
					call, ok := c.(*ast.CallExpr)
					if !ok {
						return true
					}
					if _, isDefer := n.(*ast.DeferStmt); isDefer {
						return true // deferred unlock: no state change here
					}
					id, op := w.lockIdentity(call)
					if id == "" {
						return true
					}
					switch op {
					case flow.OpAcquire:
						froms := make([]string, 0, len(local))
						for f := range local {
							froms = append(froms, f)
						}
						sort.Strings(froms)
						for _, f := range froms {
							*w.edges = append(*w.edges, lockEdge{from: f, to: id, pos: call.Pos()})
						}
						local[id] = true
					case flow.OpRelease:
						delete(local, id)
					case flow.OpNone:
						// unreachable: id == "" above
					}
					return true
				})
			})
		}
	}
}

// lockIdentity classifies call as a lock operation and resolves the
// mutex to a stable type-level identity, or "" for locks the analyzer
// cannot name (local mutex variables, opaque expressions).
func (w *orderWalker) lockIdentity(call *ast.CallExpr) (string, flow.LockOp) {
	_, op := lockClassifier(call)
	if op == flow.OpNone {
		return "", flow.OpNone
	}
	sel := call.Fun.(*ast.SelectorExpr)
	if !isMutexExpr(w.pkg, sel.X) {
		return "", flow.OpNone
	}
	switch mu := sel.X.(type) {
	case *ast.SelectorExpr:
		// x.mu: a mutex field — identity is its owning named type.
		if selection, ok := w.pkg.Info.Selections[mu]; ok && selection.Kind() == types.FieldVal {
			if named := namedOf(selection.Recv()); named != nil {
				return typeKey(named) + "." + mu.Sel.Name, op
			}
		}
		// pkg.Mu: a qualified package-level mutex.
		if obj := w.pkg.Info.Uses[mu.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && objIsPkgLevel(v) {
				return v.Pkg().Path() + "." + v.Name(), op
			}
		}
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[mu]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && objIsPkgLevel(v) {
				return v.Pkg().Path() + "." + v.Name(), op
			}
		}
	}
	return "", flow.OpNone
}

// objIsPkgLevel reports whether v is declared at package scope.
func objIsPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isMutexExpr reports whether e's type is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	if named == nil {
		return false
	}
	key := typeKey(named)
	return key == "sync.Mutex" || key == "sync.RWMutex"
}

// lockCycles finds the cycles of the acquisition graph: one per
// strongly connected component with more than one node, plus
// self-loops. Components and the cycle path inside each are rendered
// deterministically (lexicographic node order).
func lockCycles(graph map[string]map[string]token.Pos) [][]string {
	nodes := make([]string, 0, len(graph))
	seen := map[string]bool{}
	for from, tos := range graph {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	// Tarjan's strongly connected components, iterative enough for the
	// small graphs a module produces.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(graph[v]))
		for to := range graph[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if _, ok := index[to]; !ok {
				strongconnect(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				n := len(stack) - 1
				w := stack[n]
				stack = stack[:n]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	var cycles [][]string
	for _, comp := range sccs {
		if len(comp) == 1 {
			v := comp[0]
			if _, self := graph[v][v]; self {
				cycles = append(cycles, []string{v})
			}
			continue
		}
		cycles = append(cycles, cyclePath(comp, graph))
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i][0] < cycles[j][0] })
	return cycles
}

// cyclePath renders one representative cycle through a multi-node SCC:
// starting from the smallest node, follow the smallest in-component
// successor until the walk returns to a visited node.
func cyclePath(comp []string, graph map[string]map[string]token.Pos) []string {
	in := map[string]bool{}
	for _, v := range comp {
		in[v] = true
	}
	path := []string{comp[0]}
	visited := map[string]bool{comp[0]: true}
	cur := comp[0]
	for {
		tos := make([]string, 0, len(graph[cur]))
		for to := range graph[cur] {
			if in[to] {
				tos = append(tos, to)
			}
		}
		sort.Strings(tos)
		if len(tos) == 0 {
			return path // cannot happen in an SCC; defensive
		}
		nextNode := tos[0]
		// Prefer closing back to the path start when possible.
		for _, to := range tos {
			if to == path[0] {
				nextNode = to
				break
			}
		}
		if visited[nextNode] {
			return path
		}
		visited[nextNode] = true
		path = append(path, nextNode)
		cur = nextNode
	}
}
