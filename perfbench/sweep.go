package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"storemlp"
)

// warmupScale divides a sweep point's instruction budget for the setup
// warm-up pass.
const warmupScale = 10

// op is one verified operation of a timed window.
type op struct {
	start, end time.Duration // since the window start
	insts      int64         // simulated (warm + measured)
}

// gridResult is what one timed window measured.
type gridResult struct {
	ops       []op
	attempted int64
	failed    int64
	window    time.Duration
}

func (r gridResult) latMS() []float64 {
	out := make([]float64, len(r.ops))
	for i, o := range r.ops {
		out[i] = ms(o.end - o.start)
	}
	return out
}

// rateBuckets is how many equal slices of the window rates takes its
// median over.
const rateBuckets = 10

// overheadSlices is how many equal slices the traced mode's window
// alternates over: tracing is off in the even slices and on in the odd
// ones, so host speed drift reaches both halves alike.
const overheadSlices = 20

// sliceRates cuts the window into n equal slices and returns the
// instructions and operations completed per second in each, with each
// operation's work spread evenly over its run time.
func (r gridResult) sliceRates(n int) (insts, ops []float64) {
	insts = make([]float64, n)
	ops = make([]float64, n)
	width := r.window / time.Duration(n)
	for b := range insts {
		lo, hi := time.Duration(b)*width, time.Duration(b+1)*width
		for _, o := range r.ops {
			ov := min(hi, o.end) - max(lo, o.start)
			if ov <= 0 {
				continue
			}
			frac := float64(ov) / float64(o.end-o.start)
			insts[b] += frac * float64(o.insts)
			ops[b] += frac
		}
		insts[b] /= width.Seconds()
		ops[b] /= width.Seconds()
	}
	return insts, ops
}

// rates returns the instructions and operations completed per second as
// the median over rateBuckets slices of the window. The median keeps a
// few seconds of host interference from moving the whole run's figure.
func (r gridResult) rates() (instsPerS, opsPerS float64) {
	insts, ops := r.sliceRates(rateBuckets)
	return median(insts), median(ops)
}

// traceOverhead compares the slices of a window that alternated tracing
// (see overheadSlices). It returns the median untraced slice rate ÷ the
// median traced one − 1, and the untraced slices' host time per
// instruction.
func (r gridResult) traceOverhead() (overhead, untracedNsPerInst float64) {
	insts, _ := r.sliceRates(overheadSlices)
	var off, on []float64
	for i, v := range insts {
		if i%2 == 0 {
			off = append(off, v)
		} else {
			on = append(on, v)
		}
	}
	return median(off)/median(on) - 1, 1e9 / median(off)
}

// runGrid runs points round-robin, fanned out over workers goroutines
// with a fresh engine per point (storemlp.RunContext), the way the
// experiment harness runs a figure. It stops dispatching once window has
// passed and returns when the points in flight have finished. In the
// traced mode the window alternates untraced and traced slices.
func runGrid(ctx context.Context, e *env, points []point, workers int, window time.Duration) gridResult {
	var (
		res = gridResult{window: window}
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	sem := make(chan struct{}, workers)
	t0 := time.Now()
	if e.traced {
		e.tr.record(t0, window/overheadSlices)
	}
	for i := 0; ctx.Err() == nil; i++ {
		sem <- struct{}{}
		if time.Since(t0) >= window {
			break
		}
		p := points[i%len(points)]
		wg.Add(1)
		go func(run int64) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Since(t0)
			ok, d := runPoint(ctx, e, p, run, true)
			mu.Lock()
			defer mu.Unlock()
			res.attempted++
			if !ok {
				res.failed++
				return
			}
			res.ops = append(res.ops, op{start: start, end: start + d, insts: p.total()})
		}(int64(i))
	}
	wg.Wait()
	return res
}

// runPoint simulates p in process and checks the result; inTable says
// whether the golden table should hold p.
func runPoint(ctx context.Context, e *env, p point, run int64, inTable bool) (bool, time.Duration) {
	spec, err := p.spec()
	if err != nil {
		e.chk.fail(p.key(), err)
		return false, 0
	}
	sp := e.tr.start("sim.run", 0, run)
	st, err := storemlp.RunContext(ctx, spec)
	d := e.tr.end(sp, p.total())
	if err != nil {
		e.chk.fail(p.key(), err)
		return false, d
	}
	return e.chk.check(p.key(), countersOf(st), p.Insts, len(counterNames), inTable), d
}

// warmupPoints are the grid's points at a fraction of their budget.
func warmupPoints(points []point) []point {
	out := make([]point, len(points))
	for i, p := range points {
		p.Insts /= warmupScale
		p.Warm /= warmupScale
		out[i] = p
	}
	return out
}

func runSweep(ctx context.Context, e *env) error {
	points := sweepPoints(e.seed)
	workers := runtime.NumCPU()
	// Setup: resolve and validate every point, then run the grid once at
	// a tenth of its budget so heap growth and first-touch page
	// faults happen before the timed window.
	setup, err := timeSetup(func(int) error {
		for _, p := range points {
			if _, err := p.spec(); err != nil {
				return err
			}
		}
		warm := warmupPoints(points)
		var wg sync.WaitGroup
		var failed atomic.Int64
		sem := make(chan struct{}, workers)
		for i, p := range warm {
			wg.Add(1)
			sem <- struct{}{}
			go func(p point, run int64) {
				defer wg.Done()
				defer func() { <-sem }()
				if ok, _ := runPoint(ctx, e, p, run, true); !ok {
					failed.Add(1)
				}
			}(p, int64(i))
		}
		wg.Wait()
		e.rep.ops(int64(len(warm)), failed.Load())
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	res := runGrid(ctx, e, points, workers, e.window)
	e.rep.ops(res.attempted, res.failed)
	if err := reportPoints(e, setup, res); err != nil {
		return err
	}
	if !e.traced {
		return nil
	}

	// Traced mode: the window put a span around every point of its
	// traced slices; now the layer probes over every grid point.
	overhead, nsPerInst := res.traceOverhead()
	e.tr.record(time.Now(), 0)
	pr := newProber(e)
	for _, p := range points {
		if err := pr.probePoint(p, p.key(), true); err != nil {
			return err
		}
	}
	dir, err := scratchDir(e, "sweep-traces")
	if err != nil {
		return err
	}
	for _, p := range replayTracePoints(e.seed) {
		path, err := writeTrace(dir, p)
		if err != nil {
			return err
		}
		if err := pr.probeDecode(path); err != nil {
			return err
		}
	}
	sum := pr.simLayers(layerPath{generator: true, rewrite: true, newPerPoint: true})
	// The workers run side by side: each instruction holds one core for
	// workers times the window's time per instruction.
	e.rep.set("unattributed_share", 1-sum/(nsPerInst*float64(workers)), "ratio", len(points))
	e.rep.set("trace_overhead", overhead, "ratio", overheadSlices)
	return serviceProbe(ctx, e, onePerWorkload(points))
}

// onePerWorkload picks each workload's first point.
func onePerWorkload(points []point) []point {
	seen := make(map[string]bool)
	var out []point
	for _, p := range points {
		if !seen[p.Workload] {
			seen[p.Workload] = true
			out = append(out, p)
		}
	}
	return out
}

// reportPoints sets the end-to-end metrics of an in-process workload
// from its timed window.
func reportPoints(e *env, setup float64, res gridResult) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	lat := res.latMS()
	ips, ops := res.rates()
	r := e.rep
	r.set("setup_s", setup, "s", setupReps)
	r.set("minsts_per_s", ips/1e6, "Minst/s", len(lat))
	r.set("p50_ms", percentile(lat, 50), "ms", len(lat))
	r.set("p99_ms", percentile(lat, 99), "ms", len(lat))
	r.set("goodput_rps", ops, "1/s", len(lat))
	r.set("peak_rss_mb", rss, "MiB", 1)
	return nil
}
