// Package stats holds a Stats whose consumers have drifted.
package stats

// Stats counts simulated events.
type Stats struct {
	Hits   int64
	Misses int64
	Dead   int64
}
