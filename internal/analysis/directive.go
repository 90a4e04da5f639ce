package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// Directive is one parsed //storemlp:<name>[(<args>)] annotation. The
// grammar, shared by every analyzer in the suite:
//
//	directive = "storemlp:" name [ "(" args ")" ]
//	name      = lowercase letters
//	args      = arg { "," arg }        (lockafter only)
//
// A comment may carry several directives ("//storemlp:noalloc
// //storemlp:inline"), and a directive may trail prose on the same
// line. ParseDirectives is the one place the grammar lives; analyzers
// match parsed names instead of substring-grepping comment text.
type Directive struct {
	// Name is the directive keyword ("keep", "lockafter", ...).
	Name string
	// Args holds the parenthesized arguments, nil for the argument-less
	// directives.
	Args []string
}

// directiveTakesArgs maps every known directive to whether it requires
// a parenthesized argument list. An unknown name is a parse error —
// a typo like //storemlp:noaloc must fail loudly, not silently
// deactivate the annotation it was meant to be.
var directiveTakesArgs = map[string]bool{
	"keep":      false, // resetcomplete: field intentionally survives Reset
	"noalloc":   false, // hotpath: function must not allocate
	"inline":    false, // hotpath: function must inline
	"nodigest":  false, // digestcover: field excluded from the config digest
	"daemon":    false, // goleak: goroutine intentionally unbounded
	"locked":    false, // guardedby/lockbalance: lock held by caller / handed off
	"lockafter": true,  // lockorder: declared acquisition order
	"owned":     false, // sharedcapture: goroutine owns the captured variable
	"noclose":   false, // closeall: value deliberately left open
}

// ParseDirectives extracts every //storemlp: directive from one
// comment's text. It returns an error for an unknown directive name,
// for arguments on a directive that takes none, and for a missing,
// empty or unterminated argument list on one that requires them.
func ParseDirectives(text string) ([]Directive, error) {
	var out []Directive
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
		takesArgs, known := directiveTakesArgs[name]
		if !known {
			return out, fmt.Errorf("unknown directive storemlp:%s", name)
		}
		d := Directive{Name: name}
		if strings.HasPrefix(rest, "(") {
			end := strings.IndexByte(rest, ')')
			if end < 0 {
				return out, fmt.Errorf("storemlp:%s: unterminated argument list", name)
			}
			if !takesArgs {
				return out, fmt.Errorf("storemlp:%s takes no arguments", name)
			}
			for _, arg := range strings.Split(rest[1:end], ",") {
				arg = strings.TrimSpace(arg)
				if arg == "" {
					return out, fmt.Errorf("storemlp:%s: empty argument", name)
				}
				if strings.ContainsRune(arg, '(') {
					return out, fmt.Errorf("storemlp:%s: malformed argument %q", name, arg)
				}
				d.Args = append(d.Args, arg)
			}
			rest = rest[end+1:]
		} else if takesArgs {
			return out, fmt.Errorf("storemlp:%s requires arguments, e.g. storemlp:%s(mu)", name, name)
		}
		out = append(out, d)
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
			ds, err := ParseDirectives(c.Text)
			if err != nil {
				continue
			}
			for _, d := range ds {
				if d.Name == name {
					return true
				}
			}
		}
	}
	return false
}
