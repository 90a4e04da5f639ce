// Package run exercises the ctxpoll analyzer: Good polls ctx once per
// refilled batch, Bad consumes the stream with no cancellation check.
package run

import (
	"context"

	"example.com/ctxpollbad/trace"
)

// Good checks ctx.Err() every batch.
func Good(ctx context.Context, src trace.Source) (int64, error) {
	buf := make([]trace.Inst, 64)
	var n int64
	for {
		got := trace.Fill(src, buf)
		if got == 0 {
			return n, nil
		}
		n += int64(got)
		if err := ctx.Err(); err != nil {
			return n, err
		}
	}
}

// Bad never looks at ctx while draining the source.
func Bad(ctx context.Context, src trace.Source) int64 {
	var n int64
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

// RarePoll parks the only poll on a debug branch: the common iteration
// path consumes and loops back without ever checking ctx. The lexical
// check sees "a poll somewhere in the body" and stays quiet; the
// path-sensitive check flags it.
func RarePoll(ctx context.Context, src trace.Source, debug bool) int64 {
	var n int64
	for {
		if debug {
			if ctx.Err() != nil {
				return n
			}
		}
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

// BatchRefill polls only on the refill branch, mirroring the engine's
// hot loop: the paths that skip the poll also skip the consumption, so
// the cancellation bound holds and the loop is clean.
func BatchRefill(ctx context.Context, src trace.Source) (int64, error) {
	buf := make([]trace.Inst, 64)
	bi, bn := 0, 0
	var n int64
	for {
		if bi == bn {
			if err := ctx.Err(); err != nil {
				return n, err
			}
			bn = trace.Fill(src, buf)
			if bn == 0 {
				return n, nil
			}
			bi = 0
		}
		n++
		bi++
	}
}

// Nested steps each batch in an inner loop, the engine's shape, and
// never polls. The inner loop's entry block is reachable from its own
// head around the outer loop, but only a block the inner head dominates
// closes an inner back edge, so the refill stays the outer loop's.
func Nested(ctx context.Context, src trace.Source) int64 {
	buf := make([]trace.Inst, 64)
	var n int64
	for {
		got := trace.Fill(src, buf)
		if got == 0 {
			return n
		}
		for i := 0; i < got; i++ {
			n++
		}
	}
}
