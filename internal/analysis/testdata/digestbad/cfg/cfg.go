// Package cfg exercises the digestcover analyzer: Spec is a reflective
// digest root with an unexported field, a func-valued field, an
// annotated exclusion, and a nested struct hiding another unexported
// field.
package cfg

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
