package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DigestCover protects the cache-key integrity of the digest layer.
// storemlp's serving stack coalesces, caches and (in the roadmap's
// next wave) shards by config digest; a config field that exists but
// is not hashed means two different runs share a digest and the cache
// silently returns the wrong run's results.
//
// Every digest in the tree is digest.Sum over a struct
// (digest.Canonical), which walks exported fields reflectively. It
// silently skips unexported fields, and it panics at runtime on
// chan/func/unsafe kinds. Roots lists the struct types handed to the
// reflective encoder; every field reachable from a root must be
// exported and encodable.
//
// A field genuinely excluded from identity — a debug knob, an output
// sink — carries //storemlp:nodigest to say so in the source.
type DigestCover struct {
	// Roots are named struct types ("pkgpath.Name") passed to the
	// reflective encoder; all fields transitively reachable through
	// exported fields are checked.
	Roots []string
}

// Name implements Analyzer.
func (DigestCover) Name() string { return "digestcover" }

// Doc implements Analyzer.
func (DigestCover) Doc() string {
	return "every config field reachable from a digest root is hashed or carries //storemlp:nodigest"
}

// Run implements Analyzer.
func (a DigestCover) Run(m *Module) []Diagnostic {
	nodigest := nodigestFields(m)
	var out []Diagnostic

	sortedRoots := append([]string(nil), a.Roots...)
	sort.Strings(sortedRoots)
	for _, root := range sortedRoots {
		named := lookupNamedType(m, root)
		if named == nil {
			continue // root type lives outside this module (or was renamed)
		}
		w := &digestWalker{m: m, rule: a.Name(), nodigest: nodigest, seen: map[*types.Named]bool{}}
		w.walkNamed(named)
		out = append(out, w.out...)
	}
	return out
}

// digestWalker checks every struct reachable from a reflective digest
// root through exported, encodable fields.
type digestWalker struct {
	m        *Module
	rule     string
	nodigest map[token.Pos]bool
	seen     map[*types.Named]bool
	out      []Diagnostic
}

func (w *digestWalker) walkNamed(n *types.Named) {
	if w.seen[n] {
		return
	}
	w.seen[n] = true
	// Only structs declared in this module are checked: stdlib types
	// (time.Duration etc.) are out of the repo's control.
	if n.Obj().Pkg() == nil || w.m.Lookup(n.Obj().Pkg().Path()) == nil {
		return
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	tname := typeKey(n)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if w.nodigest[f.Pos()] {
			continue
		}
		if !f.Exported() {
			w.out = append(w.out, Diagnostic{
				Pos:  w.m.Fset.Position(f.Pos()),
				Rule: w.rule,
				Message: fmt.Sprintf("unexported field %s.%s is silently skipped by the reflective digest (export it, or annotate //storemlp:nodigest)",
					shortLock(tname), f.Name()),
			})
			continue
		}
		if kind := unencodableKind(f.Type(), map[*types.Named]bool{}); kind != "" {
			w.out = append(w.out, Diagnostic{
				Pos:  w.m.Fset.Position(f.Pos()),
				Rule: w.rule,
				Message: fmt.Sprintf("field %s.%s contains %s, which the reflective digest cannot encode (it panics at run time)",
					shortLock(tname), f.Name(), kind),
			})
			continue
		}
		w.walkType(f.Type())
	}
}

// walkType recurses into the named structs reachable from t.
func (w *digestWalker) walkType(t types.Type) {
	switch x := types.Unalias(t).(type) {
	case *types.Named:
		w.walkNamed(x)
		if _, isStruct := x.Underlying().(*types.Struct); !isStruct {
			w.walkType(x.Underlying())
		}
	case *types.Pointer:
		w.walkType(x.Elem())
	case *types.Slice:
		w.walkType(x.Elem())
	case *types.Array:
		w.walkType(x.Elem())
	case *types.Map:
		w.walkType(x.Key())
		w.walkType(x.Elem())
	case *types.Struct:
		// Anonymous struct: check its fields inline under a synthetic
		// name-free walk (fields still carry positions).
		for i := 0; i < x.NumFields(); i++ {
			f := x.Field(i)
			if w.nodigest[f.Pos()] {
				continue
			}
			if !f.Exported() {
				w.out = append(w.out, Diagnostic{
					Pos:  w.m.Fset.Position(f.Pos()),
					Rule: w.rule,
					Message: fmt.Sprintf("unexported field %s of anonymous struct is silently skipped by the reflective digest (export it, or annotate //storemlp:nodigest)",
						f.Name()),
				})
				continue
			}
			w.walkType(f.Type())
		}
	}
}

// unencodableKind returns a description of the first chan/func/unsafe
// kind transitively contained in t (through pointers, slices, arrays,
// maps and struct fields), or "" when t is fully encodable. Interfaces
// stop the walk: their dynamic type is not statically known.
func unencodableKind(t types.Type, seen map[*types.Named]bool) string {
	switch x := types.Unalias(t).(type) {
	case *types.Named:
		if seen[x] {
			return ""
		}
		seen[x] = true
		return unencodableKind(x.Underlying(), seen)
	case *types.Basic:
		if x.Kind() == types.UnsafePointer {
			return "an unsafe.Pointer"
		}
	case *types.Chan:
		return "a channel"
	case *types.Signature:
		return "a function value"
	case *types.Pointer:
		return unencodableKind(x.Elem(), seen)
	case *types.Slice:
		return unencodableKind(x.Elem(), seen)
	case *types.Array:
		return unencodableKind(x.Elem(), seen)
	case *types.Map:
		if k := unencodableKind(x.Key(), seen); k != "" {
			return k
		}
		return unencodableKind(x.Elem(), seen)
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			f := x.Field(i)
			if !f.Exported() {
				continue // skipped by the encoder, so its kind never surfaces
			}
			if k := unencodableKind(f.Type(), seen); k != "" {
				return k
			}
		}
	}
	return ""
}

// nodigestFields collects the declaration positions of struct fields
// annotated //storemlp:nodigest (doc comment or trailing line comment).
func nodigestFields(m *Module) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	for _, pkg := range m.SortedPackages() {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !hasDirective("nodigest", field.Doc, field.Comment) {
						continue
					}
					for _, name := range field.Names {
						out[name.Pos()] = true
					}
					if len(field.Names) == 0 { // embedded field
						out[field.Type.Pos()] = true
					}
				}
				return true
			})
		}
	}
	return out
}

// lookupNamedType resolves "pkgpath.Name" to the named type, or nil.
func lookupNamedType(m *Module, key string) *types.Named {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return nil
	}
	pkg := m.Lookup(key[:i])
	if pkg == nil || pkg.Types == nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup(key[i+1:])
	if obj == nil {
		return nil
	}
	return namedOf(obj.Type())
}
