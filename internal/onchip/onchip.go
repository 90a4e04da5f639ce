// Package onchip provides the analytical on-chip CPI model used to
// reproduce Table 3 and to translate EPI into overall CPI (§3.4).
//
// The paper measured CPIon-chip on an in-house cycle-accurate simulator
// with a perfect L2; here it is modelled as a base (issue-limited) CPI
// per workload plus the L1-miss and branch-misprediction components that
// a perfect-L2 machine still pays. The workload base CPIs are calibrated
// so the defaults land on the paper's Table 3 values.
package onchip

import (
	"fmt"

	"storemlp/internal/cache"
	"storemlp/internal/isa"
	"storemlp/internal/trace"
	"storemlp/internal/workload"
)

// Model holds the latency coefficients of the on-chip CPI estimate.
type Model struct {
	L1Latency int // cycles (4 in the paper)
	L2Latency int // cycles (15 in the paper)
	// LoadMissFactor is the fraction of an L1D-miss L2 hit latency that
	// out-of-order execution cannot hide.
	LoadMissFactor float64
	// InstMissFactor is the exposed fraction of an L1I-miss L2 hit.
	InstMissFactor float64
	// MispredPenalty is the pipeline refill cost of a misprediction.
	MispredPenalty float64
}

// DefaultModel returns coefficients matching the paper's 4-cycle L1 /
// 15-cycle L2 configuration.
func DefaultModel() Model {
	return Model{
		L1Latency:      4,
		L2Latency:      15,
		LoadMissFactor: 0.12,
		InstMissFactor: 0.35,
		MispredPenalty: 11,
	}
}

// Inputs are the per-run counts one replay collects. CPI consumes the
// first group; Table 1 reads the store and off-chip counts.
type Inputs struct {
	Insts       int64
	L1DLoadMiss int64 // loads that missed the L1D but hit on-chip
	L1IMiss     int64 // fetches that missed the L1I but hit on-chip
	Mispredicts int64
	BaseCPI     float64

	Stores       int64
	StoreOffChip int64 // store misses and S->M upgrades
	LoadOffChip  int64
	FetchOffChip int64
}

// CPI evaluates the on-chip CPI.
func (m Model) CPI(in Inputs) float64 {
	if in.Insts == 0 {
		return 0
	}
	n := float64(in.Insts)
	cpi := in.BaseCPI
	cpi += float64(in.L1DLoadMiss) / n * float64(m.L2Latency-m.L1Latency) * m.LoadMissFactor
	cpi += float64(in.L1IMiss) / n * float64(m.L2Latency) * m.InstMissFactor
	cpi += float64(in.Mispredicts) / n * m.MispredPenalty
	return cpi
}

// OverallCPI combines the on-chip and off-chip components exactly as
// §3.4 does: CPIoverall = CPIon-chip*(1-Overlap) + EPI*MissPenalty.
func OverallCPI(cpiOnChip, overlap, epochsPerInst float64, missPenalty int) float64 {
	return cpiOnChip*(1-overlap) + epochsPerInst*float64(missPenalty)
}

// Measure replays n instructions of the workload through a fresh
// default cache hierarchy (after warm instructions of warmup) and
// collects the model inputs and the Table 1 counts.
func Measure(p workload.Params, warm, n int64) (Inputs, error) {
	if err := p.Validate(); err != nil {
		return Inputs{}, err
	}
	if n <= 0 {
		return Inputs{}, fmt.Errorf("onchip: non-positive measurement length %d", n)
	}
	h := cache.NewHierarchy(cache.DefaultConfig())
	g := workload.NewGenerator(p)
	var in Inputs
	buf := make([]isa.Inst, 4096)
	run := func(count int64, record bool) {
		src := trace.Limit(g, count)
		for {
			k := trace.Fill(src, buf)
			if k == 0 {
				return
			}
			for _, ins := range buf[:k] {
				fr := h.Fetch(ins.PC)
				if record && !fr.L1Hit && !fr.OffChip {
					in.L1IMiss++
				}
				shared := ins.Flags.Has(isa.FlagShared)
				if ins.Op.IsLoad() {
					lr := h.Load(ins.Addr, shared)
					if record && !lr.L1Hit && !lr.OffChip {
						in.L1DLoadMiss++
					}
				}
				if ins.Op.IsStore() {
					h.Store(ins.Addr, shared)
				}
				if record {
					in.Insts++
					if ins.Op == isa.OpBranch && ins.Flags.Has(isa.FlagMispredict) {
						in.Mispredicts++
					}
				}
			}
		}
	}
	run(warm, false)
	base := h.Stats
	run(n, true)
	in.BaseCPI = p.OnChipBaseCPI
	in.Stores = h.Stats.Stores - base.Stores
	in.StoreOffChip = h.Stats.StoreOffChip - base.StoreOffChip
	in.LoadOffChip = h.Stats.LoadOffChip - base.LoadOffChip
	in.FetchOffChip = h.Stats.FetchOffChip - base.FetchOffChip
	return in, nil
}
