package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// MergeComplete verifies the transitive completeness of the parallel
// merge path: starting from the configured root merge methods (the
// fold that combines independent runs' results into an aggregate), every
// struct type whose Merge/Add method is reached must reference every
// one of its fields, or the field must carry //storemlp:nomerge
// declaring it deliberately unmerged (configuration echoed by every
// run, derived state recomputed after the fold).
//
// stats-drift pins the numeric counters of the top-level Stats struct;
// this rule closes the gap it leaves: the *nested* accumulators —
// cache hierarchies, SMAC tables, overlap histograms — that the root
// fold delegates to. A field added to a nested struct but forgotten by
// its Add silently vanishes from every merged aggregate (such as the
// experiment summary's "all" row), and only from merged aggregates, so
// single-run tests never notice.
type MergeComplete struct {
	// Roots are the merge entry points, "pkgpath.Type.Method"
	// (e.g. "storemlp/internal/epoch.Stats.Merge").
	Roots []string
}

// Name implements Analyzer.
func (MergeComplete) Name() string { return "mergecomplete" }

// Doc implements Analyzer.
func (MergeComplete) Doc() string {
	return "every type on the parallel merge path folds all its fields (or marks them //storemlp:nomerge)"
}

// mergeSite is one (type, method) pair on the merge path.
type mergeSite struct {
	named  *types.Named
	method string
}

// Run implements Analyzer.
func (a MergeComplete) Run(m *Module) []Diagnostic {
	var out []Diagnostic
	var work []mergeSite
	visited := map[string]bool{}
	for _, root := range a.Roots {
		site, diag := a.resolveRoot(m, root)
		if diag != nil {
			out = append(out, *diag)
			continue
		}
		work = append(work, site)
	}
	for len(work) > 0 {
		site := work[0]
		work = work[1:]
		key := typeKey(site.named) + "." + site.method
		if visited[key] {
			continue
		}
		visited[key] = true
		pkg := m.Lookup(site.named.Obj().Pkg().Path())
		if pkg == nil {
			continue // outside the module: nothing to check
		}
		body := findMethodBody(pkg, site.named, site.method)
		if body == nil {
			out = append(out, Diagnostic{
				Pos:  m.Fset.Position(site.named.Obj().Pos()),
				Rule: a.Name(),
				Message: fmt.Sprintf("%s.%s is on the merge path but has no %s method",
					site.named.Obj().Pkg().Name(), site.named.Obj().Name(), site.method),
			})
			continue
		}
		out = append(out, a.checkMethod(m, pkg, site.named, site.method, body)...)
		work = append(work, nestedMerges(pkg, body)...)
	}
	return out
}

// resolveRoot parses "pkgpath.Type.Method" and looks the type up.
func (a MergeComplete) resolveRoot(m *Module, root string) (mergeSite, *Diagnostic) {
	bad := func(format string, args ...any) (mergeSite, *Diagnostic) {
		return mergeSite{}, &Diagnostic{
			Pos:     m.Fset.Position(0),
			Rule:    a.Name(),
			Message: fmt.Sprintf(format, args...),
		}
	}
	i := strings.LastIndexByte(root, '.')
	if i < 0 {
		return bad("malformed merge root %q (want pkgpath.Type.Method)", root)
	}
	method := root[i+1:]
	j := strings.LastIndexByte(root[:i], '.')
	if j < 0 {
		return bad("malformed merge root %q (want pkgpath.Type.Method)", root)
	}
	pkgPath, typeName := root[:j], root[j+1:i]
	pkg := m.Lookup(pkgPath)
	if pkg == nil {
		return bad("merge root package %s not found in module", pkgPath)
	}
	obj := pkg.Types.Scope().Lookup(typeName)
	named := namedOf(objType(obj))
	if named == nil {
		return bad("merge root type %s.%s not found", pkgPath, typeName)
	}
	return mergeSite{named: named, method: method}, nil
}

// checkMethod reports the struct fields the merge method never touches.
func (a MergeComplete) checkMethod(m *Module, pkg *Package, named *types.Named, method string, body *ast.BlockStmt) []Diagnostic {
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	_, fields := structFieldsAST(pkg, named.Obj().Name())
	if fields == nil {
		return nil
	}
	covered := fieldsReferenced(pkg, named, body)
	var out []Diagnostic
	for _, field := range fields {
		if hasDirective("nomerge", field.Doc, field.Comment) {
			continue
		}
		for _, name := range field.Names {
			if covered[name.Name] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:  m.Fset.Position(name.Pos()),
				Rule: a.Name(),
				Message: fmt.Sprintf("field %s.%s is not folded by %s on the parallel merge path (merge it, or annotate //storemlp:nomerge)",
					named.Obj().Name(), name.Name, method),
			})
		}
	}
	return out
}

// nestedMerges finds the Merge/Add calls the body delegates to, each a
// new site on the merge path.
func nestedMerges(pkg *Package, body *ast.BlockStmt) []mergeSite {
	seen := map[string]mergeSite{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := fun.Sel.Name
		if name != "Merge" && name != "Add" {
			return true
		}
		sel, ok := pkg.Info.Selections[fun]
		if !ok || sel.Kind() != types.MethodVal {
			return true
		}
		named := namedOf(sel.Recv())
		if named == nil || named.Obj().Pkg() == nil {
			return true
		}
		seen[typeKey(named)+"."+name] = mergeSite{named: named, method: name}
		return true
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sites := make([]mergeSite, 0, len(keys))
	for _, k := range keys {
		sites = append(sites, seen[k])
	}
	return sites
}
