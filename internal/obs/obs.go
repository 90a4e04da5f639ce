// Package obs is the repository's unified observability layer: a
// metrics registry rendered in the Prometheus text exposition format
// and as expvar-style JSON, and request-scoped span trees that double
// as the live-progress record of the engine runs under them,
// exportable as Chrome trace_event JSON.
//
// The paper's whole evidentiary chain is instrumentation — EPI, MLP
// and the termination-condition distributions are MLPsim's outputs —
// and the runtime hosting the simulator deserves the same visibility:
// long engine runs publish instructions-retired / epochs-closed /
// running-MLP while they execute, the serving pipeline exposes
// saturation and hit-ratio series, and every request's stages — down
// to the engine's instruction batches and its end-of-run fold — land
// in one span tree a browser can open.
//
// Everything here is stdlib-only (the module pins zero external
// dependencies) and nil-safe: a nil *ReqTrace or *Board accepts every
// call as a no-op, so instrumented code needs exactly one pointer
// check on its hot path and no configuration plumbing. The
// engine-facing fast paths (ReqTrace.Complete/Instant/Publish) are
// annotated //storemlp:noalloc and gated by the hotpath analyzer, so
// "tracing off costs nothing" is a CI invariant, not a benchmark
// observation.
package obs

import "time"

// Now returns the current time in nanoseconds since the Unix epoch —
// the shared timebase for spans and progress snapshots.
func Now() int64 { return time.Now().UnixNano() }
