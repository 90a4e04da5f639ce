package main

import (
	"context"
	"time"

	"storemlp"
)

// replayWindow replays every (trace, setting) pair in turn, one run at a
// time, with storemlp.RunTraceFile (memory-mapped columnar decode, pooled
// engine), until window has passed. In the traced mode the window
// alternates untraced and traced slices.
func replayWindow(ctx context.Context, e *env, tps []point, paths []string, window time.Duration) gridResult {
	res := gridResult{window: window}
	t0 := time.Now()
	if e.traced {
		e.tr.record(t0, window/overheadSlices)
	}
	for i := 0; ctx.Err() == nil && time.Since(t0) < window; i++ {
		j := i % (len(tps) * len(replayKnobs))
		tp, k := tps[j/len(replayKnobs)], replayKnobs[j%len(replayKnobs)]
		key := replayKey(tp, k)
		start := time.Since(t0)
		sp := e.tr.start("replay.run", 0, int64(i))
		st, err := storemlp.RunTraceFileContext(ctx, paths[j/len(replayKnobs)], k.config(), tp.Warm)
		d := e.tr.end(sp, tp.total())
		res.attempted++
		if err != nil {
			e.chk.fail(key, err)
			res.failed++
			continue
		}
		if !e.chk.check(key, countersOf(st), tp.Insts, len(counterNames), true) {
			res.failed++
			continue
		}
		res.ops = append(res.ops, op{start: start, end: start + d, insts: tp.total()})
	}
	return res
}

func runReplay(ctx context.Context, e *env) error {
	tps := replayTracePoints(e.seed)
	paths := make([]string, len(tps))
	// Setup: write one columnar trace per paper workload.
	setup, err := timeSetup(func(int) error {
		dir, err := scratchDir(e, "replay-traces")
		if err != nil {
			return err
		}
		for i, tp := range tps {
			if paths[i], err = writeTrace(dir, tp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res := replayWindow(ctx, e, tps, paths, e.window)
	e.rep.ops(res.attempted, res.failed)
	if err := reportPoints(e, setup, res); err != nil {
		return err
	}
	if !e.traced {
		return nil
	}

	// Traced mode: the window put a span around every replay of its
	// traced slices; now the layer probes over every (trace, setting)
	// pair: decode per trace, the epoch core over the trace's stream (no
	// coherence traffic, as RunTraceFile has none) per setting.
	overhead, nsPerInst := res.traceOverhead()
	e.tr.record(time.Now(), 0)
	pr := newProber(e)
	for i, tp := range tps {
		if err := pr.probeDecode(paths[i]); err != nil {
			return err
		}
		for _, k := range replayKnobs {
			p := tp
			p.Knobs = k
			if err := pr.probePoint(p, replayKey(tp, k), false); err != nil {
				return err
			}
		}
		if err := pr.probeRewrite(tp); err != nil {
			return err
		}
	}
	sum := pr.simLayers(layerPath{decode: true})
	e.rep.set("unattributed_share", 1-sum/nsPerInst, "ratio", len(tps)*len(replayKnobs))
	e.rep.set("trace_overhead", overhead, "ratio", overheadSlices)
	return serviceProbe(ctx, e, tps)
}
