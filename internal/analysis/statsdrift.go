package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// StatsDrift checks that the statistics struct and its consumers stay
// in sync: every exported numeric field (scalars and fixed-size numeric
// arrays) must be read somewhere in the consumer package that renders
// the CSVs, tables and figures.
//
// The invariant: a counter the emitters never read is either dead
// weight or a metric the paper's figures are missing, and the drift is
// invisible to the compiler.
type StatsDrift struct {
	// StructPkg is the import path declaring the statistics struct.
	StructPkg string
	// StructName is the struct type name, e.g. "Stats".
	StructName string
	// ConsumerPkg is the import path whose code must read every
	// exported numeric field.
	ConsumerPkg string
}

// Name implements Analyzer.
func (StatsDrift) Name() string { return "stats-drift" }

// Doc implements Analyzer.
func (a StatsDrift) Doc() string {
	return fmt.Sprintf("every exported numeric field of %s.%s must be read by the %s emitters",
		a.StructPkg, a.StructName, a.ConsumerPkg)
}

// Run implements Analyzer.
func (a StatsDrift) Run(m *Module) []Diagnostic {
	spkg := m.Lookup(a.StructPkg)
	if spkg == nil {
		return []Diagnostic{{
			Pos:     m.Fset.Position(0),
			Rule:    a.Name(),
			Message: fmt.Sprintf("package %s not found in module", a.StructPkg),
		}}
	}
	obj := spkg.Types.Scope().Lookup(a.StructName)
	if obj == nil {
		return []Diagnostic{{
			Pos:     m.Fset.Position(0),
			Rule:    a.Name(),
			Message: fmt.Sprintf("type %s.%s not found", a.StructPkg, a.StructName),
		}}
	}
	named := namedOf(obj.Type())
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return []Diagnostic{{
			Pos:     m.Fset.Position(obj.Pos()),
			Rule:    a.Name(),
			Message: fmt.Sprintf("%s.%s is not a struct", a.StructPkg, a.StructName),
		}}
	}

	consumer := m.Lookup(a.ConsumerPkg)
	consumedFields := map[string]bool{}
	if consumer != nil {
		for _, f := range consumer.Files {
			for fld := range fieldsReferenced(consumer, named, f) {
				consumedFields[fld] = true
			}
		}
	}

	var out []Diagnostic
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if !fld.Exported() || !numericStatField(fld.Type()) || consumedFields[fld.Name()] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  m.Fset.Position(fld.Pos()),
			Rule: a.Name(),
			Message: fmt.Sprintf("numeric field %s.%s is never read by %s (dead counter or missing metric)",
				a.StructName, fld.Name(), a.ConsumerPkg),
		})
	}
	return out
}

// numericStatField reports whether t is a numeric scalar or a
// fixed-size (possibly nested) array of numerics.
func numericStatField(t types.Type) bool {
	for {
		arr, ok := t.Underlying().(*types.Array)
		if !ok {
			break
		}
		t = arr.Elem()
	}
	return isNumeric(t)
}

// fieldsReferenced collects names of the named struct's fields selected
// anywhere under root.
func fieldsReferenced(pkg *Package, named *types.Named, root ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := pkg.Info.Selections[se]
		if sel == nil || sel.Kind() != types.FieldVal {
			return true
		}
		if namedOf(sel.Recv()) == named {
			out[sel.Obj().Name()] = true
		}
		return true
	})
	return out
}
