package main

import (
	"fmt"
	"strings"

	"storemlp"
	"storemlp/internal/server"
)

// paperWorkloads are the paper's four commercial workloads, in its order.
var paperWorkloads = []string{"database", "tpcw", "specjbb", "specweb"}

// knobs is one machine configuration the benchmark simulates: the
// paper's default (§4.3) with the knobs its figures toggle overlaid. The
// same value builds the in-process storemlp.Config and the service's
// /v1/run config patch, so both paths simulate the identical machine.
type knobs struct {
	WC       bool // weak consistency (PowerPC) instead of PC (TSO)
	Prefetch int  // store prefetch mode: 0, 1 (at retire) or 2 (at execute)
	SB, SQ   int  // store buffer and store queue entries
	SLE      bool // speculative lock elision
	HWS2     bool // hardware scout with the store-stall trigger
	SMAC     int  // store miss accelerator entries (0 = none)
}

// defaultKnobs is the paper's default machine: PC, Sp1, Sb16, Sq32.
var defaultKnobs = knobs{Prefetch: 1, SB: 16, SQ: 32}

// label names the configuration stably; golden keys embed it.
func (k knobs) label() string {
	var b strings.Builder
	if k.WC {
		b.WriteString("wc")
	} else {
		b.WriteString("pc")
	}
	fmt.Fprintf(&b, ".sp%d.sb%d.sq%d", k.Prefetch, k.SB, k.SQ)
	if k.SLE {
		b.WriteString(".sle")
	}
	if k.HWS2 {
		b.WriteString(".hws2")
	}
	if k.SMAC > 0 {
		fmt.Fprintf(&b, ".smac%d", k.SMAC)
	}
	return b.String()
}

// config builds the in-process machine configuration.
func (k knobs) config() storemlp.Config {
	cfg := storemlp.DefaultConfig()
	if k.WC {
		cfg.Model = storemlp.WC
	}
	cfg.StorePrefetch = []storemlp.PrefetchMode{storemlp.Sp0, storemlp.Sp1, storemlp.Sp2}[k.Prefetch]
	cfg.StoreBuffer, cfg.StoreQueue = k.SB, k.SQ
	cfg.SLE = k.SLE
	if k.HWS2 {
		cfg.HWS = storemlp.HWS2
	}
	cfg.SMACEntries = k.SMAC
	return cfg
}

// patch builds the equivalent service config patch; every knob is sent
// explicitly, so the result does not lean on the service's defaults.
func (k knobs) patch() *server.ConfigPatch {
	model, hws := "pc", -1
	if k.WC {
		model = "wc"
	}
	if k.HWS2 {
		hws = 2
	}
	return &server.ConfigPatch{
		Model:         &model,
		StorePrefetch: &k.Prefetch,
		StoreBuffer:   &k.SB,
		StoreQueue:    &k.SQ,
		SLE:           &k.SLE,
		HWS:           &hws,
		SMACEntries:   &k.SMAC,
	}
}

// point is one simulation: a paper workload at a generator seed, a
// machine configuration and an instruction budget.
type point struct {
	Workload    string
	Seed        int64
	Knobs       knobs
	Insts, Warm int64
}

// key identifies the point in the golden table.
func (p point) key() string {
	return fmt.Sprintf("%s/s%d/%s/%d+%d", p.Workload, p.Seed, p.Knobs.label(), p.Warm, p.Insts)
}

// total is the instruction count the point simulates (warm + measured).
func (p point) total() int64 { return p.Warm + p.Insts }

// spec is the in-process run specification.
func (p point) spec() (storemlp.RunSpec, error) {
	w, err := storemlp.WorkloadByName(p.Workload, p.Seed)
	if err != nil {
		return storemlp.RunSpec{}, err
	}
	return storemlp.RunSpec{Workload: w, Config: p.Knobs.config(), Insts: p.Insts, Warm: p.Warm}, nil
}

// request is the equivalent /v1/run request body.
func (p point) request() server.RunRequest {
	return server.RunRequest{
		Workload: p.Workload,
		Seed:     p.Seed,
		Insts:    p.Insts,
		Warm:     p.Warm,
		Config:   p.Knobs.patch(),
		Parallel: 1,
	}
}

// Sweep: the paper-figure path.
const (
	sweepInsts = 1_000_000
	sweepWarm  = 500_000
)

// sweepKnobs are the six configurations the paper's figures toggle.
var sweepKnobs = []knobs{
	defaultKnobs,                                       // default: PC, Sp1 (Figure 2)
	{Prefetch: 0, SB: 16, SQ: 32},                      // Sp0 (Figure 2)
	{WC: true, Prefetch: 1, SB: 16, SQ: 32},            // WC (Figure 7)
	{WC: true, Prefetch: 1, SB: 16, SQ: 32, SLE: true}, // WC+SLE (Figure 7)
	{Prefetch: 1, SB: 16, SQ: 32, SMAC: 4096},          // SMAC 4K entries (Figure 5)
	{Prefetch: 1, SB: 16, SQ: 32, HWS2: true},          // HWS2 (Figure 8)
}

// sweepPoints is the 4 workloads x 6 configurations grid at seed.
func sweepPoints(seed int64) []point {
	var ps []point
	for _, w := range paperWorkloads {
		for _, k := range sweepKnobs {
			ps = append(ps, point{Workload: w, Seed: seed, Knobs: k, Insts: sweepInsts, Warm: sweepWarm})
		}
	}
	return ps
}

// Replay: trace-driven single runs.
const (
	replayInsts = 1_000_000
	replayWarm  = 500_000
)

// replayKnobs are Figure-2 store-buffer/store-queue/prefetch settings.
var replayKnobs = []knobs{
	{Prefetch: 0, SB: 8, SQ: 16},
	defaultKnobs,
	{Prefetch: 2, SB: 32, SQ: 64},
}

// replayTracePoints are the streams written to trace files: one per
// paper workload, generated under the default (PC) machine so the trace
// holds the unrewritten TSO stream.
func replayTracePoints(seed int64) []point {
	ps := make([]point, len(paperWorkloads))
	for i, w := range paperWorkloads {
		ps[i] = point{Workload: w, Seed: seed, Knobs: defaultKnobs, Insts: replayInsts, Warm: replayWarm}
	}
	return ps
}

// replayKey identifies one replay of the trace of tp under k.
func replayKey(tp point, k knobs) string {
	return "replay/" + tp.key() + "/" + k.label()
}
