package analysis

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"
)

func TestParseDirectives(t *testing.T) {
	cases := []struct {
		text    string
		want    []string
		wantErr string
	}{
		{text: "// no directives here", want: nil},
		{text: "//storemlp:keep", want: []string{"keep"}},
		{text: "// retained across resets //storemlp:keep (see DESIGN.md)",
			want: []string{"keep"}},
		{text: "//storemlp:noalloc //storemlp:inline",
			want: []string{"noalloc", "inline"}},
		{text: "//storemlp:noaloc", wantErr: "unknown directive"},
		// A retired directive is unknown: a stale annotation must fail
		// loudly, not go silent.
		{text: "//storemlp:nomerge", wantErr: "unknown directive"},
		{text: "//storemlp:lockafter(P.mu)", wantErr: "unknown directive"},
		{text: "//storemlp:nodigest", wantErr: "unknown directive"},
		{text: "//storemlp:", wantErr: "unknown directive"},
		{text: "//storemlp:daemon //storemlp:bogus", wantErr: "unknown directive"},
	}
	for _, tc := range cases {
		got, err := ParseDirectives(tc.text)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseDirectives(%q) err = %v, want containing %q", tc.text, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDirectives(%q) unexpected error: %v", tc.text, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseDirectives(%q) = %+v, want %+v", tc.text, got, tc.want)
		}
	}
}

func TestHasDirective(t *testing.T) {
	group := func(lines ...string) *ast.CommentGroup {
		g := &ast.CommentGroup{}
		for _, l := range lines {
			g.List = append(g.List, &ast.Comment{Text: l})
		}
		return g
	}
	if !hasDirective("locked", group("// held by caller", "//storemlp:locked")) {
		t.Error("hasDirective missed a directive in a multi-line group")
	}
	if hasDirective("locked", nil, group("// mentions locked but no directive")) {
		t.Error("hasDirective matched plain prose")
	}
	// A comment that fails to parse contributes nothing, even when the
	// wanted directive precedes the error.
	if hasDirective("locked", group("//storemlp:locked //storemlp:bogus")) {
		t.Error("hasDirective accepted a comment with a parse error")
	}
}

// FuzzDirectiveParse fuzzes the //storemlp: grammar. Seeds cover every
// directive form used in the live tree plus the rejection cases, among
// them the directives of retired rules; the invariants are that parsing
// never panics and that any accepted parse names only known directives
// and is stable under re-rendering.
func FuzzDirectiveParse(f *testing.F) {
	for _, seed := range []string{
		"//storemlp:daemon",
		"//storemlp:inline",
		"//storemlp:keep",
		"//storemlp:lockafter(P.mu)", // retired with lockorder
		"//storemlp:lockafter(sim.enginePool.mu, server.Cache.mu)",
		"//storemlp:locked",
		"//storemlp:noalloc",
		"//storemlp:noclose",
		"//storemlp:nodigest", // retired with digestcover
		"//storemlp:owned",
		"//storemlp:noalloc //storemlp:inline",
		"// keep this field //storemlp:keep (survives Reset)",
		"//storemlp:bogus",
		"//storemlp:nomerge", // retired with mergecomplete
		"//storemlp:lockafter",
		"//storemlp:lockafter()",
		"//storemlp:keep(arg)",
		"//storemlp:lockafter(a.mu",
		"//storemlp:",
		"storemlp:storemlp:keep",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, err := ParseDirectives(text)
		if err != nil {
			return
		}
		var rendered []string
		for _, name := range names {
			if !knownDirectives[name] {
				t.Fatalf("accepted unknown directive %q from %q", name, text)
			}
			rendered = append(rendered, "//storemlp:"+name)
		}
		// Re-rendering the accepted parse and parsing again must be a
		// fixed point: the grammar has one canonical reading.
		again, err := ParseDirectives(strings.Join(rendered, " "))
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", rendered, text, err)
		}
		if !reflect.DeepEqual(names, again) {
			t.Fatalf("re-parse of %q = %q, want %q", rendered, again, names)
		}
	})
}
