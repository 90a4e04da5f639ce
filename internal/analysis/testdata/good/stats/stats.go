// Package stats exercises stats-drift with every counter consumed.
package stats

// Stats counts simulated events.
type Stats struct {
	Events int64
	Hits   int64
	Ratio  float64
	Name   string // non-numeric: exempt from the drift rule
}
