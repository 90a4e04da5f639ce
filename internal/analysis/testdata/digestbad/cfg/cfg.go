// Package cfg exercises the digestcover analyzer: Spec is a reflective
// digest root with an unexported field, a func-valued field, an
// annotated exclusion, and a nested struct hiding another unexported
// field; Key is an explicit digest function that forgets one of Req's
// exported fields.
package cfg

import "strconv"

// Spec is handed to the reflective encoder.
type Spec struct {
	Name   string
	seed   int64  // silently skipped by the encoder: finding
	Notify func() // panics the encoder at run time: finding
	Debug  bool   //storemlp:nodigest
	Sub    Nested
}

// Nested rides along inside Spec.
type Nested struct {
	Depth int
	cache []byte // finding, reached through Spec.Sub
}

// Req is covered by the explicit digest function Key.
type Req struct {
	Workload string
	Insts    int64
	Trace    bool // not mentioned in Key: finding
}

// Key hashes Req field by field — and forgets Trace.
func Key(r Req) string {
	return r.Workload + "-" + strconv.FormatInt(r.Insts, 10)
}
