package experiments

import (
	"storemlp/internal/epoch"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// The ablations quantify design choices the paper discusses in prose:
// store coalescing granularity (§5.1), the L2 bandwidth cost of store
// prefetching that motivates the SMAC (§3.3.3), the SMAC sub-blocking
// geometry, the scout reach behind Hardware Scout's effectiveness
// (§3.3.5), SLE vs transactional memory (§3.3.4), and shared-L2 CMP
// interference (§4.3's two-cores-per-L2 configuration).

// AblationResults bundles every ablation sweep.
type AblationResults struct {
	Coalescing   []CoalescingCell
	Bandwidth    []BandwidthCell
	ScoutReach   []ScoutReachCell
	LockElision  []LockElisionCell
	SharedL2     []SharedL2Cell
	SMACGeometry []SMACGeometryCell
}

// RunAblations executes every ablation sweep.
func RunAblations(c Config) (*AblationResults, error) {
	var r AblationResults
	var err error
	if r.Coalescing, err = AblationCoalescing(c); err != nil {
		return nil, err
	}
	if r.Bandwidth, err = AblationBandwidth(c); err != nil {
		return nil, err
	}
	if r.ScoutReach, err = AblationScoutReach(c); err != nil {
		return nil, err
	}
	if r.LockElision, err = AblationLockElision(c); err != nil {
		return nil, err
	}
	if r.SharedL2, err = AblationSharedL2(c); err != nil {
		return nil, err
	}
	if r.SMACGeometry, err = AblationSMACGeometry(c); err != nil {
		return nil, err
	}
	return &r, nil
}

// CoalescingCell is one point of the store-coalescing ablation.
type CoalescingCell struct {
	Workload      string
	CoalesceBytes int // 0 = off
	SQ            int
	EPI           float64
}

// AblationCoalescing sweeps coalescing granularity {off, 8 B, 64 B}
// against store queue sizes, reproducing the paper's observation that
// 64-byte coalescing lets a 32-entry store queue match a 64-entry one.
func AblationCoalescing(c Config) ([]CoalescingCell, error) {
	return sweep(c, func(w workload.Params) (cells []CoalescingCell) {
		for _, gran := range []int{0, 8, 64} {
			for _, sq := range []int{16, 32, 64} {
				cells = append(cells, CoalescingCell{Workload: w.Name, CoalesceBytes: gran, SQ: sq})
			}
		}
		return cells
	}, func(c Config, w workload.Params, cell *CoalescingCell) sim.Spec {
		cfg := uarch.Default()
		cfg.CoalesceBytes = cell.CoalesceBytes
		cfg.StoreQueue = cell.SQ
		return c.spec(w, cfg)
	}, func(cell *CoalescingCell, s *epoch.Stats) { cell.EPI = s.EPI() })
}

// BandwidthCell reports L2 traffic per 1000 instructions for a store
// handling scheme: demand store commits plus prefetch/ownership
// requests. The SMAC's purpose is reaching prefetch-level EPI without
// the prefetch traffic.
type BandwidthCell struct {
	Workload        string
	Scheme          string // "Sp0", "Sp1", "Sp2", "Sp0+SMAC"
	EPI             float64
	StoreTraffic    float64 // store commits reaching L2, per 1000 insts
	PrefetchReqs    float64 // prefetch-for-write requests, per 1000 insts
	SMACAccelerated float64
}

// AblationBandwidth compares the L2 bandwidth cost of store prefetching
// against the SMAC.
func AblationBandwidth(c Config) ([]BandwidthCell, error) {
	return sweep(c, func(w workload.Params) (cells []BandwidthCell) {
		for _, s := range []string{"Sp0", "Sp1", "Sp2", "Sp0+SMAC"} {
			cells = append(cells, BandwidthCell{Workload: w.Name, Scheme: s})
		}
		return cells
	}, func(c Config, w workload.Params, cell *BandwidthCell) sim.Spec {
		cfg := uarch.Default()
		switch cell.Scheme {
		case "Sp0":
			cfg.StorePrefetch = uarch.Sp0
		case "Sp1":
			cfg.StorePrefetch = uarch.Sp1
		case "Sp2":
			cfg.StorePrefetch = uarch.Sp2
		case "Sp0+SMAC":
			cfg.StorePrefetch = uarch.Sp0
			cfg.SMACEntries = 4 << 10
		}
		return c.smacSpec(w, cfg)
	}, func(cell *BandwidthCell, s *epoch.Stats) {
		per1000 := func(n int64) float64 { return 1000 * float64(n) / float64(s.Insts) }
		cell.EPI = s.EPI()
		cell.StoreTraffic = per1000(s.Hierarchy.L2StoreTraffic)
		cell.PrefetchReqs = per1000(s.Hierarchy.L2PrefetchReqs)
		cell.SMACAccelerated = per1000(s.SMACAccelerated)
	})
}

// SharedL2Cell is one point of the CMP-interference ablation: the
// paper's default configuration has two cores sharing the L2; this
// quantifies what the co-runner's cache pressure costs.
type SharedL2Cell struct {
	Workload string
	CoRun    bool
	EPI      float64
}

// AblationSharedL2 compares solo execution against co-scheduled
// execution with a second copy of the workload sharing the L2.
func AblationSharedL2(c Config) ([]SharedL2Cell, error) {
	return sweep(c, func(w workload.Params) []SharedL2Cell {
		return []SharedL2Cell{{Workload: w.Name, CoRun: false}, {Workload: w.Name, CoRun: true}}
	}, func(c Config, w workload.Params, cell *SharedL2Cell) sim.Spec {
		spec := c.spec(w, uarch.Default())
		spec.SharedCore = cell.CoRun
		return spec
	}, func(cell *SharedL2Cell, s *epoch.Stats) { cell.EPI = s.EPI() })
}

// SMACGeometryCell is one point of the SMAC sub-blocking design-space
// ablation (§3.3.3 motivates the 2048 B / 32-sub-block choice as a tag
// amortization).
type SMACGeometryCell struct {
	Workload       string
	SuperLineBytes int
	EPI            float64
	Accelerated    int64
	CoveragePerTag int64
}

// AblationSMACGeometry sweeps the super-line size at a fixed entry
// count and 64 B sub-blocks: small super-lines waste tags, huge ones
// waste reach when store footprints are sparse.
func AblationSMACGeometry(c Config) ([]SMACGeometryCell, error) {
	return sweep(c, func(w workload.Params) (cells []SMACGeometryCell) {
		for _, sl := range []int{256, 1024, 2048, 4096} {
			cells = append(cells, SMACGeometryCell{Workload: w.Name, SuperLineBytes: sl})
		}
		return cells
	}, func(c Config, w workload.Params, cell *SMACGeometryCell) sim.Spec {
		cfg := uarch.Default()
		cfg.StorePrefetch = uarch.Sp0
		cfg.SMACEntries = 1 << 10
		cfg.SMACSuperLineBytes = cell.SuperLineBytes
		return c.smacSpec(w, cfg)
	}, func(cell *SMACGeometryCell, s *epoch.Stats) {
		cell.EPI = s.EPI()
		cell.Accelerated = s.SMACAccelerated
		cell.CoveragePerTag = int64(cell.SuperLineBytes)
	})
}

// LockElisionCell is one point of the SLE-vs-TM comparison (§3.3.4:
// "transactional memory achieves similar benefits as SLE").
type LockElisionCell struct {
	Workload string
	Scheme   string // "base", "SLE", "TM"
	EPI      float64
}

// AblationLockElision compares the two lock-removal techniques under
// processor consistency.
func AblationLockElision(c Config) ([]LockElisionCell, error) {
	return sweep(c, func(w workload.Params) (cells []LockElisionCell) {
		for _, s := range []string{"base", "SLE", "TM"} {
			cells = append(cells, LockElisionCell{Workload: w.Name, Scheme: s})
		}
		return cells
	}, func(c Config, w workload.Params, cell *LockElisionCell) sim.Spec {
		cfg := uarch.Default()
		switch cell.Scheme {
		case "SLE":
			cfg.SLE = true
		case "TM":
			cfg.TM = true
		}
		return c.spec(w, cfg)
	}, func(cell *LockElisionCell, s *epoch.Stats) { cell.EPI = s.EPI() })
}

// ScoutReachCell is one point of the scout-reach ablation.
type ScoutReachCell struct {
	Workload string
	Reach    int
	EPI      float64
}

// AblationScoutReach sweeps how far Hardware Scout (HWS2) runs ahead,
// in instructions; the paper's implicit reach is one miss latency of
// execution (~454 instructions at 500 cycles / 1.1 CPI).
func AblationScoutReach(c Config) ([]ScoutReachCell, error) {
	return sweep(c, func(w workload.Params) (cells []ScoutReachCell) {
		for _, r := range []int{64, 128, 256, 454, 1024} {
			cells = append(cells, ScoutReachCell{Workload: w.Name, Reach: r})
		}
		return cells
	}, func(c Config, w workload.Params, cell *ScoutReachCell) sim.Spec {
		cfg := uarch.Default()
		cfg.HWS = uarch.HWS2
		cfg.ScoutReach = cell.Reach
		return c.spec(w, cfg)
	}, func(cell *ScoutReachCell, s *epoch.Stats) { cell.EPI = s.EPI() })
}
