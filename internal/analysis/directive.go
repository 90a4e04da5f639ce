package analysis

import (
	"fmt"
	"go/ast"
	"slices"
	"strings"
)

// knownDirectives is every //storemlp:<name> annotation the suite
// reads. The grammar, shared by every analyzer:
//
//	directive = "storemlp:" name
//	name      = lowercase letters
//
// A comment may carry several directives ("//storemlp:noalloc
// //storemlp:inline"), and a directive may trail prose on the same
// line. An unknown name is a parse error — a typo like
// //storemlp:noaloc, or an annotation left behind by a retired rule,
// must fail loudly, not silently deactivate the annotation it was meant
// to be.
var knownDirectives = map[string]bool{
	"keep":    true, // resetcomplete: field intentionally survives Reset
	"noalloc": true, // hotpath: function must not allocate
	"inline":  true, // hotpath: function must inline
	"daemon":  true, // goleak: goroutine intentionally unbounded
	"locked":  true, // guardedby/lockbalance: lock held by caller / handed off
	"owned":   true, // sharedcapture: goroutine owns the captured variable
	"noclose": true, // closeall: value deliberately left open
}

// ParseDirectives extracts the name of every //storemlp: directive in
// one comment's text, in order. ParseDirectives is the one place the
// grammar lives; analyzers match parsed names instead of
// substring-grepping comment text.
func ParseDirectives(text string) ([]string, error) {
	var out []string
	rest := text
	for {
		i := strings.Index(rest, "storemlp:")
		if i < 0 {
			return out, nil
		}
		rest = rest[i+len("storemlp:"):]
		j := 0
		for j < len(rest) && rest[j] >= 'a' && rest[j] <= 'z' {
			j++
		}
		name := rest[:j]
		rest = rest[j:]
		if !knownDirectives[name] {
			return out, fmt.Errorf("unknown directive storemlp:%s", name)
		}
		out = append(out, name)
	}
}

// hasDirective reports whether any comment in the given groups carries
// the named directive, by the grammar above. Comments with parse errors
// contribute nothing.
func hasDirective(name string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if names, err := ParseDirectives(c.Text); err == nil && slices.Contains(names, name) {
				return true
			}
		}
	}
	return false
}
