// Parallel intra-run simulation: one run split into K contiguous
// segments simulated concurrently on per-core engines checked out of
// the Pool, merged with epoch.Stats.Merge. The epoch model makes this
// sound — per-epoch records fold into Stats associatively — and the
// warm-up overlap makes it accurate: each segment after the first
// re-simulates an unmeasured prefix so window, cache, SMAC and branch
// state are reconstructed at its boundary, reusing the engine's
// existing WarmInsts machinery (baselines snapshot at the
// warmup→measurement transition exactly as for prewarming).
//
// Exactness contract. Counters that depend only on the measured
// instruction range — Stats.Insts, the Hierarchy operation counts
// (Fetches/Loads/Stores) and Snoops (the traffic clock is
// fast-forwarded bit-exactly, see coherence.Traffic.Skip) — match the
// serial run exactly. Two boundary artifacts are corrected at the
// trailing edge of every segment but the last: an unmeasured drain
// suffix of one overlap window (epoch.WithMeasureLimit) lets stores
// still open at the measurement boundary reach the same
// overlapped/exposed disposition the serial run gives them, and the
// continuation correction (epoch.WithWarmContinuation) stops an epoch
// straddling the boundary from being counted by both sides. What
// remains is genuine warm-up error: counters that depend on machine
// state reconstructed through the overlap prefix (miss counts, Epochs,
// SMAC hits, branch-predictor outcomes) drift by a bounded amount.
// DESIGN.md §15 documents the measured drift at WarmupOverlap; the
// golden-fixture equivalence test pins it.
package sim

import (
	"context"
	"fmt"
	"sync"

	"storemlp/internal/epoch"
	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
)

const (
	// overlapPerL2Line scales the warm-up overlap with the L2's line
	// count. Miss counts are dominated by L2 residency, so the overlap
	// must be long enough for the measured slice's prefix to refill the
	// L2 the way the serial run left it — a horizon set by the machine
	// (lines x instructions per fill), not by the run length. Eight
	// instructions per line holds EPI and total-miss drift under 0.5%
	// at 500k and 2M-instruction scale across all four workloads
	// (TestOverlapSweep records the curve); for the default 2 MB / 64 B
	// L2 this yields 262144 overlap instructions.
	overlapPerL2Line = 8

	// minOverlap floors WarmupOverlap for degenerate (tiny-cache)
	// configurations.
	minOverlap = 32768

	// minSegment is the smallest measured slice worth a segment: below
	// one engine batch the fan-out overhead and the overlap redundancy
	// dwarf the work, so Segments clamps the requested split.
	minSegment = 4096

	// ffBlock is the fast-forward block size (matches the engine's
	// batch length; 4096 x 24 B stays cache-resident).
	ffBlock = 4096
)

// WarmupOverlap is the warm-up overlap prefix, in instructions,
// re-simulated (unmeasured) ahead of every segment but the first:
// overlapPerL2Line instructions per L2 line. Short runs clamp the
// overlap to the stream start — state reconstruction is then bit-exact
// and only the corrected boundary residue remains; long runs pay a
// constant (K-1) x WarmupOverlap redundant instructions, amortized as
// runs grow past the L2 horizon.
func WarmupOverlap(cfg uarch.Config) int64 {
	l2 := cfg.Hierarchy.L2
	ov := int64(l2.SizeBytes/l2.LineBytes) * overlapPerL2Line
	if ov < minOverlap {
		ov = minOverlap
	}
	return ov
}

// segment is one contiguous slice of a run's instruction stream.
type segment struct {
	start int64 // first stream position fed to the engine (overlap prefix included)
	meas  int64 // stream position where measurement begins: Warm + segment offset
	end   int64 // one past the segment's last stream position
}

// clampSegments bounds a requested segment count so every segment
// measures at least minSegment instructions; at least 1.
func clampSegments(insts int64, k int) int {
	if k < 1 {
		k = 1
	}
	if maxK := insts / minSegment; int64(k) > maxK {
		k = int(maxK)
		if k < 1 {
			k = 1
		}
	}
	return k
}

// Segments reports the number of segments RunContext will actually use
// for s: the Parallel knob clamped so every segment measures at least
// minSegment instructions. 1 means the run executes serially. The
// serving layer uses this to account segment engines in its saturation
// metric and to surface the fan-out in responses.
func Segments(s Spec) int {
	return clampSegments(s.Insts, s.Parallel)
}

// splitRun partitions warm+insts stream positions into k segments:
// measured instructions are split as evenly as possible (earlier
// segments take the remainder), the first segment absorbs the whole
// warmup prefix, and every later segment is fronted by min(overlap,
// meas) unmeasured overlap instructions.
func splitRun(warm, insts int64, k int, overlap int64) []segment {
	segs := make([]segment, 0, k)
	base := insts / int64(k)
	rem := insts % int64(k)
	off := int64(0)
	for i := 0; i < k; i++ {
		n := base
		if int64(i) < rem {
			n++
		}
		meas := warm + off
		start := meas - overlap
		if i == 0 || start < 0 {
			start = 0
		}
		if i == 0 {
			start = 0 // the warmup prefix is segment 0's overlap
		}
		segs = append(segs, segment{start: start, meas: meas, end: meas + n})
		off += n
	}
	return segs
}

// discard advances src past n instructions, polling ctx once per block
// so a cancelled request abandons the fast-forward promptly. This is
// how synthetic segments position their stream: the deterministic
// generator (and the consistency transform chain, whose rewrites
// change instruction counts) cannot be seeked, so the segment re-emits
// and drops the prefix — exact by construction.
func discard(ctx context.Context, src trace.Source, n int64) error {
	if n <= 0 {
		return nil
	}
	buf := make([]isa.Inst, ffBlock)
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		want := len(buf)
		if n < int64(want) {
			want = int(n)
		}
		got := trace.Fill(src, buf[:want])
		if got == 0 {
			return fmt.Errorf("sim: stream ended %d instructions before segment start", n)
		}
		n -= int64(got)
	}
	return nil
}

// runParallel fans a validated spec out across Segments(s) segment
// engines and merges their Stats. Every segment checks its engine out
// of the pool, so a saturated serving layer recycles allocations
// across both requests and segments.
func (p *Pool) runParallel(ctx context.Context, s Spec, overlap int64) (*epoch.Stats, error) {
	segs := splitRun(s.Warm, s.Insts, Segments(s), overlap)
	return fanOutMerge(ctx, len(segs), func(i int) (*epoch.Stats, error) {
		return p.runSegment(ctx, s, segs[i], i, len(segs))
	})
}

// runSegment simulates one slice of the run on a pooled engine: build
// the stream up to the segment's end (plus the drain suffix), drop the
// prefix, reconstruct state through the overlap (WarmInsts), measure
// the slice, and drain.
func (p *Pool) runSegment(ctx context.Context, s Spec, sg segment, i, k int) (*epoch.Stats, error) {
	ctx, end := segmentSpan(ctx, i)
	defer end()
	cfg := s.Uarch
	cfg.WarmInsts = sg.meas - sg.start
	opts, err := segmentOptions(ctx, s, sg.start)
	if err != nil {
		return nil, err
	}
	feedEnd := sg.end
	if i < k-1 {
		// Drain suffix: simulate one overlap window past the measured
		// range, unmeasured, so open stores reach their natural serial
		// disposition instead of being conservatively exposed at stream
		// end. The last segment ends where the serial stream ends, so its
		// finalize matches the serial finalize exactly.
		feedEnd += cfg.OverlapWindow()
		opts = append(opts, epoch.WithMeasureLimit(sg.end-sg.meas))
	}
	if i > 0 {
		opts = append(opts, epoch.WithWarmContinuation())
	}
	e := p.get()
	defer p.put(e)
	if err := e.Reconfigure(cfg, opts...); err != nil {
		return nil, err
	}
	src := BuildSource(s.Workload, cfg, feedEnd)
	if err := discard(ctx, src, sg.start); err != nil {
		return nil, err
	}
	label := func() string { return fmt.Sprintf("%s [seg %d/%d]", runLabel(s), i+1, k) }
	st, err := simulate(ctx, e, src, nil, label, feedEnd-sg.start, sg.end-sg.meas)
	if err != nil {
		return nil, err
	}
	out := *st
	return &out, nil
}

// segmentSpan opens segment i's span under the request span ctx
// carries and returns a context that parents the segment's own spans
// under it, plus the function that closes it.
func segmentSpan(ctx context.Context, i int) (context.Context, func()) {
	rt, parent := obs.SpanFrom(ctx)
	seg := rt.StartSpan(obs.StageSegment, parent)
	return obs.WithSpan(ctx, rt, seg), func() { rt.EndSpan(seg, int64(i)) }
}

// RunTraceParallel splits a complete in-memory columnar trace across
// segment engines: every worker gets its own random-access reader over
// the shared bytes (typically an mmap via colv1.Open — see
// File.Data), positions it with the footer seek index, and decodes its
// blocks independently, so trace decode parallelizes with the
// simulation. warm instructions at the head of the trace are excluded
// from statistics, exactly as in the serial trace path.
func (p *Pool) RunTraceParallel(ctx context.Context, data []byte, cfg uarch.Config, warm int64, segments int) (*epoch.Stats, error) {
	probe, err := colv1.NewBytesReader(data)
	if err != nil {
		return nil, err
	}
	total := probe.NumInsts()
	insts := total - warm
	if insts <= 0 {
		return nil, fmt.Errorf("sim: trace holds %d instructions, warmup %d leaves nothing to measure", total, warm)
	}
	k := clampSegments(insts, segments)
	segs := splitRun(warm, insts, k, WarmupOverlap(cfg))
	return fanOutMerge(ctx, len(segs), func(i int) (*epoch.Stats, error) {
		return p.runTraceSegment(ctx, data, cfg, segs[i], i, len(segs))
	})
}

// runTraceSegment decodes and simulates one instruction range of the
// shared trace image on a pooled engine.
func (p *Pool) runTraceSegment(ctx context.Context, data []byte, cfg uarch.Config, sg segment, i, k int) (*epoch.Stats, error) {
	ctx, end := segmentSpan(ctx, i)
	defer end()
	r, err := colv1.NewBytesReader(data)
	if err != nil {
		return nil, err
	}
	if err := r.SeekInst(sg.start); err != nil {
		return nil, err
	}
	segCfg := cfg
	segCfg.WarmInsts = sg.meas - sg.start
	var opts []epoch.Option
	feedEnd := sg.end
	if i < k-1 {
		// Drain suffix, clamped to the trace's actual length (see
		// runSegment for why the last segment never gets one).
		if feedEnd += segCfg.OverlapWindow(); feedEnd > r.NumInsts() {
			feedEnd = r.NumInsts()
		}
		opts = append(opts, epoch.WithMeasureLimit(sg.end-sg.meas))
	}
	if i > 0 {
		opts = append(opts, epoch.WithWarmContinuation())
	}
	e := p.get()
	defer p.put(e)
	if err := e.Reconfigure(segCfg, opts...); err != nil {
		return nil, err
	}
	src := trace.Limit(r, feedEnd-sg.start)
	label := func() string { return fmt.Sprintf("trace %s [seg %d/%d]", cfg.Name(), i+1, k) }
	st, err := simulate(ctx, e, src, nil, label, feedEnd-sg.start, sg.end-sg.meas)
	if err != nil {
		return nil, err
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	out := *st
	return &out, nil
}

// fanOutMerge runs n segment workers concurrently, waits for all of
// them, and merges their Stats in segment order (Merge is associative
// and commutative over every counter, but a fixed order keeps the
// result deterministic bit for bit). The first error by segment index
// wins; a cancelled context surfaces as every worker's error. When ctx
// carries a request span (obs.WithSpan), the merge records a
// StageMerge span on it; the workers record their own segment spans.
func fanOutMerge(ctx context.Context, n int, f func(i int) (*epoch.Stats, error)) (*epoch.Stats, error) {
	results := make([]*epoch.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rt, parent := obs.SpanFrom(ctx)
	msp := rt.StartSpan(obs.StageMerge, parent)
	merged := results[0]
	for _, st := range results[1:] {
		merged.Merge(st)
	}
	rt.EndSpan(msp, int64(n))
	return merged, nil
}
