// Package consumer reads Hits and Misses but never Dead.
package consumer

import "example.com/bad/stats"

// Total is the report body.
func Total(s *stats.Stats) int64 { return s.Hits + s.Misses }
