package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"storemlp"
	"storemlp/internal/cache"
	"storemlp/internal/epoch"
	"storemlp/internal/isa"
	"storemlp/internal/sim"
	"storemlp/internal/trace"
	"storemlp/internal/workload"
)

// Span names of the layer probes. Each times one layer from outside,
// through its public functions, over a workload's own inputs.
const (
	spanGen    = "workload.gen"      // workload.NewGenerator drained by trace.Fill
	spanBuild  = "consistency.build" // sim.BuildSource drained: generator + rewrite
	spanDecode = "colv1.decode"      // trace.OpenFile + ReadBatch over a trace file
	spanCache  = "cache.feed"        // a fresh cache.Hierarchy fed Fetch/Load/Store
	spanNew    = "sim.new"           // epoch.New for the point's configuration
	spanEpoch  = "epoch.run"         // epoch.Engine.Run over a materialized trace.Slice
)

// prober runs the layer probes of the traced mode and accumulates what
// the spans cannot hold: the rewrite share, trace bytes, and the
// simulated statistics of every probe run.
type prober struct {
	e    *env
	buf  []isa.Inst // the materialized stream, reused across points
	runs int64      // probe operations, for span run IDs

	rewriteNS time.Duration // consistency.build minus workload.gen, WC/SLE points
	rewriteN  int64         // instructions behind rewriteNS
	bytes     int64         // trace file bytes decoded
	stats     counters      // summed simulated statistics of the epoch probes
	attempted int64
	failed    int64
}

func newProber(e *env) *prober { return &prober{e: e} }

// drain pulls every instruction of src through trace.Fill.
func drain(src trace.Source, batch []isa.Inst) int64 {
	var n int64
	for {
		k := trace.Fill(src, batch)
		if k == 0 {
			return n
		}
		n += int64(k)
	}
}

// engineOptions mirrors how a synthetic run attaches remote coherence
// traffic; trace replays run without it.
func engineOptions(spec storemlp.RunSpec, traffic bool) []epoch.Option {
	w := spec.Workload
	if traffic && spec.Config.Nodes > 1 && w.SnoopsPerKiloInst > 0 {
		return []epoch.Option{epoch.WithTraffic(w.Traffic(), w.Seed+1)}
	}
	return nil
}

// probePoint times the generator, the consistency rewrite (WC/SLE
// points), the cache hierarchy, engine construction and the epoch core
// over p's stream, and checks the epoch result under key. traffic
// selects the synthetic path's coherence traffic; replays have none.
func (pr *prober) probePoint(p point, key string, traffic bool) error {
	tr := pr.e.tr
	pr.runs++
	run := pr.runs
	spec, err := p.spec()
	if err != nil {
		return err
	}
	total := p.total()
	root := tr.start("probe.point", 0, run)
	defer tr.end(root, total)
	batch := make([]isa.Inst, 4096)

	sp := tr.start(spanGen, root.id, run)
	n := drain(trace.Limit(workload.NewGenerator(spec.Workload), total), batch)
	gen := tr.end(sp, n)

	cfg := spec.Config
	cfg.WarmInsts = p.Warm
	if cfg.Model == storemlp.WC || cfg.SLE {
		sp = tr.start(spanBuild, root.id, run)
		n = drain(sim.BuildSource(spec.Workload, cfg, total), batch)
		pr.rewriteNS += tr.end(sp, n) - gen
		pr.rewriteN += n
	}

	if int64(cap(pr.buf)) < total {
		pr.buf = make([]isa.Inst, total)
	}
	insts := pr.buf[:total]
	if got := trace.Fill(sim.BuildSource(spec.Workload, cfg, total), insts); int64(got) != total {
		return fmt.Errorf("%s: stream ended after %d of %d instructions", p.key(), got, total)
	}

	h := cache.NewHierarchy(cfg.Hierarchy)
	sp = tr.start(spanCache, root.id, run)
	acc := feedHierarchy(h, insts)
	tr.end(sp, acc)

	opts := engineOptions(spec, traffic)
	sp = tr.start(spanNew, root.id, run)
	eng, err := epoch.New(cfg, opts...)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	// Reconfigure touches every page New allocated, so the timed run
	// below pays no first-touch faults.
	if err := eng.Reconfigure(cfg, opts...); err != nil {
		return err
	}
	sp = tr.start(spanEpoch, root.id, run)
	st, err := eng.Run(trace.NewSlice(insts))
	tr.end(sp, total)
	pr.attempted++
	if err != nil {
		pr.failed++
		pr.e.chk.fail(key, err)
		return nil
	}
	c := countersOf(st)
	if !pr.e.chk.check(key, c, p.Insts, len(counterNames), true) {
		pr.failed++
	}
	for i := range c {
		pr.stats[i] += c[i]
	}
	return nil
}

// feedHierarchy replays the stream's instruction fetches, loads and
// stores into h and returns the number of accesses.
func feedHierarchy(h *cache.Hierarchy, insts []isa.Inst) int64 {
	var n int64
	for _, in := range insts {
		h.Fetch(in.PC)
		n++
		shared := in.Flags.Has(isa.FlagShared)
		if in.Op.IsLoad() {
			h.Load(in.Addr, shared)
			n++
		}
		if in.Op.IsStore() {
			h.Store(in.Addr, shared)
			n++
		}
	}
	return n
}

// probeRewrite times only the consistency rewrite over p's stream, for
// workloads whose own points are all PC without SLE: it drains p's
// stream raw and under the WC and WC+SLE variants of its configuration.
func (pr *prober) probeRewrite(p point) error {
	tr := pr.e.tr
	pr.runs++
	spec, err := p.spec()
	if err != nil {
		return err
	}
	batch := make([]isa.Inst, 4096)
	total := p.total()
	sp := tr.start(spanGen, 0, pr.runs)
	gen := tr.end(sp, drain(trace.Limit(workload.NewGenerator(spec.Workload), total), batch))
	for _, sle := range []bool{false, true} {
		cfg := spec.Config
		cfg.Model, cfg.SLE = storemlp.WC, sle
		sp = tr.start(spanBuild, 0, pr.runs)
		n := drain(sim.BuildSource(spec.Workload, cfg, total), batch)
		pr.rewriteNS += tr.end(sp, n) - gen
		pr.rewriteN += n
	}
	return nil
}

// probeDecode times colv1 decode over the trace at path.
func (pr *prober) probeDecode(path string) error {
	tr := pr.e.tr
	pr.runs++
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	sp := tr.start(spanDecode, 0, pr.runs)
	src, closer, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	n := drain(src, make([]isa.Inst, 4096))
	tr.end(sp, n)
	if err := src.Err(); err != nil {
		closer.Close()
		return err
	}
	pr.bytes += fi.Size()
	return closer.Close()
}

// writeTrace writes p's stream (under p's configuration) to a columnar
// trace file in dir and returns its path.
func writeTrace(dir string, p point) (string, error) {
	spec, err := p.spec()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, p.Workload+".smlc")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	_, werr := storemlp.WriteTraceFormat(bw, spec.Workload, spec.Config, p.total(), storemlp.TraceColumnar)
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}

// simLayers reports the layer metrics the probes measured and returns
// the summed self time per instruction of the layers on the workload's
// simulation path: the epoch core (cache share included) plus whichever
// of the generator, the rewrite, colv1 decode and engine construction
// the path names. The probed points must weigh as they do in the
// workload's timed window.
func (pr *prober) simLayers(onPath layerPath) float64 {
	r, tr := pr.e.rep, pr.e.tr
	perInst := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	genD, genN := tr.total(spanGen)
	decD, decN := tr.total(spanDecode)
	cacheD, cacheN := tr.total(spanCache)
	newD, newN := tr.total(spanNew)
	epD, epN := tr.total(spanEpoch)
	s := pr.stats
	insts := float64(s[0])

	gen, dec, ep := perInst(genD, genN), perInst(decD, decN), perInst(epD, epN)
	accPerInst := float64(cacheN) / float64(epN) // direct-feed accesses per streamed instruction
	cachePerAcc := perInst(cacheD, cacheN)
	r.set("workload.ns_per_inst", gen, "ns", int(genN))
	r.set("consistency.ns_per_inst", perInst(pr.rewriteNS, pr.rewriteN), "ns", int(pr.rewriteN))
	r.set("colv1.ns_per_inst", dec, "ns", int(decN))
	r.set("colv1.bytes_per_inst", float64(pr.bytes)/float64(decN), "B", int(decN))
	r.set("cache.ns_per_access", cachePerAcc, "ns", int(cacheN))
	r.set("cache.accesses_per_inst", float64(s[8]+s[10]+s[12])/insts, "1/inst", int(s[0]))
	r.set("cache.offchip_per_kinst", 1000*float64(s[9]+s[11]+s[13])/insts, "1/kinst", int(s[0]))
	r.set("smac.probes_per_kinst", 1000*float64(s[18])/insts, "1/kinst", int(s[0]))
	hitRatio := 0.0
	if s[18] > 0 {
		hitRatio = float64(s[19]) / float64(s[18])
	}
	r.set("smac.hit_ratio", hitRatio, "ratio", int(s[18]))
	r.set("coherence.snoops_per_kinst", 1000*float64(s[20])/insts, "1/kinst", int(s[0]))
	r.set("epoch.ns_per_inst", ep, "ns", int(epN))
	r.set("epoch.self_ns_per_inst", ep-cachePerAcc*accPerInst, "ns", int(epN))
	r.set("epoch.epi", 1000*float64(s[1])/insts, "1/kinst", int(s[0]))
	r.set("sim.new_ms", ms(newD)/float64(newN), "ms", int(newN))
	r.ops(pr.attempted, pr.failed)

	sum := ep
	if onPath.generator {
		sum += gen
	}
	if onPath.rewrite {
		sum += perInst(pr.rewriteNS, epN)
	}
	if onPath.decode {
		sum += dec
	}
	if onPath.newPerPoint {
		sum += perInst(newD, epN)
	}
	return sum
}

// layerPath says which probed layers block a workload's result.
type layerPath struct {
	generator   bool // the stream comes from the generator
	rewrite     bool // ... and through the consistency rewrite of its WC/SLE points
	decode      bool // the stream comes from colv1 decode
	newPerPoint bool // every point builds a fresh engine
}
