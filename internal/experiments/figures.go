package experiments

import (
	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Fig2Cell is one bar segment of Figure 2: EPI (epochs per 1000
// instructions) for a store prefetch mode x store buffer size x store
// queue size, per workload. Perfect marks the "stores never stall"
// bottom segment.
type Fig2Cell struct {
	Workload string
	Prefetch uarch.PrefetchMode
	SB, SQ   int
	Perfect  bool
	EPI      float64
}

// Fig2SQSizes are the store queue sizes swept in Figure 2.
var Fig2SQSizes = []int{16, 32, 64, 256}

// Fig2SBSizes are the store buffer sizes swept in Figure 2.
var Fig2SBSizes = []int{8, 16, 32}

// Figure2 sweeps store prefetching, store buffer and store queue sizes
// under processor consistency.
func Figure2(c Config) ([]Fig2Cell, error) {
	return sweep(c, func(w workload.Params) (cells []Fig2Cell) {
		for _, sp := range []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2} {
			for _, sb := range Fig2SBSizes {
				for _, sq := range Fig2SQSizes {
					cells = append(cells, Fig2Cell{Workload: w.Name, Prefetch: sp, SB: sb, SQ: sq})
				}
			}
		}
		return append(cells, Fig2Cell{Workload: w.Name, Perfect: true})
	}, func(c Config, w workload.Params, cell *Fig2Cell) sim.Spec {
		cfg := uarch.Default()
		if cell.Perfect {
			cfg.PerfectStores = true
		} else {
			cfg.StorePrefetch = cell.Prefetch
			cfg.StoreBuffer = cell.SB
			cfg.StoreQueue = cell.SQ
		}
		return c.spec(w, cfg)
	}, func(cell *Fig2Cell, s *epoch.Stats) { cell.EPI = s.EPI() })
}

// Fig3Row is one bar of Figure 3: the window-termination-condition mix
// over epochs with store MLP >= 1, for the default configuration (A) or
// for SLE plus prefetch-past-serializing (B).
type Fig3Row struct {
	Workload        string
	Variant         string // "A" (default) or "B" (SLE+PPS)
	EpochsWithStore int64
	Fractions       [epoch.NumTermConds]float64
}

// Figure3 produces both variants for every workload.
func Figure3(c Config) ([]Fig3Row, error) {
	return sweep(c, func(w workload.Params) []Fig3Row {
		return []Fig3Row{{Workload: w.Name, Variant: "A"}, {Workload: w.Name, Variant: "B"}}
	}, func(c Config, w workload.Params, row *Fig3Row) sim.Spec {
		cfg := uarch.Default()
		if row.Variant == "B" {
			cfg.SLE = true
			cfg.PrefetchPastSerializing = true
		}
		return c.spec(w, cfg)
	}, func(row *Fig3Row, s *epoch.Stats) {
		row.EpochsWithStore = s.EpochsWithStore
		for t := epoch.TermCond(0); t < epoch.NumTermConds; t++ {
			row.Fractions[t] = s.TermFraction(t)
		}
	})
}

// Fig4Row is one graph of Figure 4: the joint distribution of store MLP
// (1..>=10) and combined load+instruction MLP (0..>=5) over epochs, for
// the default configuration.
type Fig4Row struct {
	Workload string
	// Joint[s][l]: fraction of all epochs with store MLP bucket s and
	// load+inst MLP bucket l.
	Joint [epoch.MaxStoreMLPBucket + 1][epoch.MaxLoadInstBucket + 1]float64
	// StoreMLP is the average over epochs with at least one store miss.
	StoreMLP float64
}

// Figure4 measures the MLP distributions.
func Figure4(c Config) ([]Fig4Row, error) {
	return sweep(c, func(w workload.Params) []Fig4Row {
		return []Fig4Row{{Workload: w.Name}}
	}, defaultSpec[Fig4Row], func(row *Fig4Row, s *epoch.Stats) {
		row.StoreMLP = s.StoreMLP()
		for sb := 0; sb <= epoch.MaxStoreMLPBucket; sb++ {
			for lb := 0; lb <= epoch.MaxLoadInstBucket; lb++ {
				row.Joint[sb][lb] = s.MLPJointFraction(sb, lb)
			}
		}
	})
}

// ---- SMAC experiments (Figures 5 and 6) ----

// Fig5SMACEntries is the SMAC size sweep. The paper sweeps 8K-128K
// entries against reuse footprints of tens to hundreds of megabytes,
// which needs ~1O(1B) warm instructions; this harness runs a 1/32-scale
// model — store-miss density x4 and churn working sets shrunk so the
// evict-then-revisit cycle fits in a few million instructions — and
// sweeps 256-4K entries (= 8K..128K / 32). Shapes (saturation ordering,
// Sp0+SMAC ~ Sp2) are preserved; absolute entry counts are scaled.
var Fig5SMACEntries = []int{256, 512, 1 << 10, 2 << 10, 4 << 10}

// smacScale compresses a workload's store-miss timescale for the SMAC
// experiments: density x4 (more for very store-light workloads, so the
// churn sweep still wraps within the run), with the churn working set
// sized for one revisit per ~5M instructions — just after the lines
// leave the L2.
func smacScale(w workload.Params) workload.Params {
	w.Name = w.Name + "+smacscale"
	mult := 4.0
	if w.StoreMissPer100*mult < 0.40 {
		mult = 0.40 / w.StoreMissPer100
	}
	w.StoreMissPer100 *= mult
	if w.StoreMissPer100 > w.StorePer100 {
		w.StoreMissPer100 = w.StorePer100
	}
	// One full sweep of the private churn region every ~5M instructions.
	w.StoreWSBytes = int64(w.StoreMissPer100 / 100 * 5_000_000 * 64)
	w.SharedWSBytes = 128 << 10
	return w
}

// Fig5Cell is one bar segment of Figure 5: EPI per store prefetch mode
// and SMAC size (0 = no SMAC; Perfect = stores never stall).
type Fig5Cell struct {
	Workload    string
	Prefetch    uarch.PrefetchMode
	SMACEntries int
	Perfect     bool
	EPI         float64
	Accelerated int64
}

// Figure5 sweeps the SMAC against the store prefetch modes.
func Figure5(c Config) ([]Fig5Cell, error) {
	return sweep(c, func(w workload.Params) (cells []Fig5Cell) {
		for _, sp := range []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2} {
			cells = append(cells, Fig5Cell{Workload: w.Name, Prefetch: sp})
			for _, e := range Fig5SMACEntries {
				cells = append(cells, Fig5Cell{Workload: w.Name, Prefetch: sp, SMACEntries: e})
			}
		}
		return append(cells, Fig5Cell{Workload: w.Name, Perfect: true})
	}, func(c Config, w workload.Params, cell *Fig5Cell) sim.Spec {
		cfg := uarch.Default()
		if cell.Perfect {
			cfg.PerfectStores = true
		} else {
			cfg.StorePrefetch = cell.Prefetch
			cfg.SMACEntries = cell.SMACEntries
		}
		return c.smacSpec(w, cfg)
	}, func(cell *Fig5Cell, s *epoch.Stats) {
		cell.EPI = s.EPI()
		cell.Accelerated = s.SMACAccelerated
	})
}

// Fig6Cell is one point of Figure 6: SMAC coherence invalidates per 1000
// instructions (left graph) and the percentage of missing stores that
// hit an invalidated SMAC sub-block (right graph), as node count and
// SMAC size vary.
type Fig6Cell struct {
	Workload      string
	Nodes         int
	SMACEntries   int
	InvalPer1000  float64
	PctHitInvalid float64
}

// Figure6 measures the impact of cross-chip coherence on the SMAC.
func Figure6(c Config) ([]Fig6Cell, error) {
	return sweep(c, func(w workload.Params) (cells []Fig6Cell) {
		for _, nodes := range []int{2, 4} {
			for _, e := range Fig5SMACEntries {
				cells = append(cells, Fig6Cell{Workload: w.Name, Nodes: nodes, SMACEntries: e})
			}
		}
		return cells
	}, func(c Config, w workload.Params, cell *Fig6Cell) sim.Spec {
		cfg := uarch.Default()
		cfg.SMACEntries = cell.SMACEntries
		cfg.Nodes = cell.Nodes
		return c.smacSpec(w, cfg)
	}, func(cell *Fig6Cell, s *epoch.Stats) {
		cell.InvalPer1000 = 1000 * float64(s.SMAC.CoherenceInvalidates) / float64(s.Insts)
		if s.SMAC.Probes > 0 {
			cell.PctHitInvalid = 100 * float64(s.SMAC.HitInvalidated) / float64(s.SMAC.Probes)
		}
	})
}

// ---- consistency-model experiments (Figure 7) ----

// Fig7Configs names the six configurations of Figure 7.
var Fig7Configs = []string{"PC1", "PC2", "PC3", "WC1", "WC2", "WC3"}

func fig7Uarch(name string) uarch.Config {
	cfg := uarch.Default()
	switch name {
	case "PC1":
	case "PC2":
		cfg.PrefetchPastSerializing = true
	case "PC3":
		cfg.PrefetchPastSerializing = true
		cfg.SLE = true
	case "WC1":
		cfg.Model = consistency.WC
	case "WC2":
		cfg.Model = consistency.WC
		cfg.PrefetchPastSerializing = true
	case "WC3":
		cfg.Model = consistency.WC
		cfg.PrefetchPastSerializing = true
		cfg.SLE = true
	}
	return cfg
}

// Fig7Cell is one bar segment of Figure 7.
type Fig7Cell struct {
	Workload string
	Prefetch uarch.PrefetchMode
	Config   string // PC1..PC3, WC1..WC3
	Perfect  bool   // bottom segment: stores never stall
	EPI      float64
}

// Figure7 compares the memory consistency models and their
// optimizations (prefetch past serializing instructions, SLE).
func Figure7(c Config) ([]Fig7Cell, error) {
	return sweep(c, func(w workload.Params) (cells []Fig7Cell) {
		for _, sp := range []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2} {
			for _, name := range Fig7Configs {
				cells = append(cells,
					Fig7Cell{Workload: w.Name, Prefetch: sp, Config: name},
					Fig7Cell{Workload: w.Name, Prefetch: sp, Config: name, Perfect: true})
			}
		}
		return cells
	}, func(c Config, w workload.Params, cell *Fig7Cell) sim.Spec {
		cfg := fig7Uarch(cell.Config)
		cfg.StorePrefetch = cell.Prefetch
		cfg.PerfectStores = cell.Perfect
		return c.spec(w, cfg)
	}, func(cell *Fig7Cell, s *epoch.Stats) { cell.EPI = s.EPI() })
}

// Fig8Cell is one bar segment of Figure 8: Hardware Scout modes under
// both consistency models.
type Fig8Cell struct {
	Workload string
	Model    consistency.Model
	HWS      uarch.HWSMode
	Perfect  bool
	EPI      float64
}

// Figure8 evaluates HWS0/1/2 (and no scout) under PC and WC.
func Figure8(c Config) ([]Fig8Cell, error) {
	return sweep(c, func(w workload.Params) (cells []Fig8Cell) {
		for _, m := range []consistency.Model{consistency.PC, consistency.WC} {
			for _, h := range []uarch.HWSMode{uarch.NoHWS, uarch.HWS0, uarch.HWS1, uarch.HWS2} {
				cells = append(cells,
					Fig8Cell{Workload: w.Name, Model: m, HWS: h},
					Fig8Cell{Workload: w.Name, Model: m, HWS: h, Perfect: true})
			}
		}
		return cells
	}, func(c Config, w workload.Params, cell *Fig8Cell) sim.Spec {
		cfg := uarch.Default()
		cfg.Model = cell.Model
		cfg.HWS = cell.HWS
		cfg.PerfectStores = cell.Perfect
		return c.spec(w, cfg)
	}, func(cell *Fig8Cell, s *epoch.Stats) { cell.EPI = s.EPI() })
}
