package experiments

import (
	"storemlp/internal/epoch"
	"storemlp/internal/metrics"
	"storemlp/internal/workload"
)

// SummaryRow condenses one default-configuration run into the counters
// and derived metrics behind every figure: raw miss mix, overlap split,
// epoch population and the dominant termination condition. Like every
// statistic the paper reports, a row covers one workload; nothing is
// summed across workloads.
type SummaryRow struct {
	Workload         string
	Insts            int64
	Epochs           int64
	EPI              float64
	MLP              float64
	StoreMLP         float64
	LoadInstMLP      float64
	StoreMisses      int64
	LoadMisses       int64
	InstMisses       int64
	OverlappedStores int64
	ExposedStores    int64
	SMACAccelerated  int64
	EpochsWithStore  int64
	// MultiStoreEpochs counts epochs with store MLP >= 2 (from the
	// Figure 4 joint histogram): the epochs where store misses actually
	// overlap each other.
	MultiStoreEpochs int64
	TopTermCond      string
	Snoops           int64
}

// Summary runs the default configuration once per workload and reports
// the full counter set, one row per workload in configuration order.
func Summary(c Config) ([]SummaryRow, error) {
	return sweep(c, func(w workload.Params) []SummaryRow {
		return []SummaryRow{{Workload: w.Name}}
	}, defaultSpec[SummaryRow], func(row *SummaryRow, s *epoch.Stats) { *row = summaryRow(row.Workload, s) })
}

func summaryRow(name string, s *epoch.Stats) SummaryRow {
	top := epoch.TermNone
	for t := epoch.TermCond(0); t < epoch.NumTermConds; t++ {
		if t != epoch.TermNone && s.TermCounts[t] > s.TermCounts[top] {
			top = t
		}
	}
	topName := "-"
	if s.TermCounts[top] > 0 && top != epoch.TermNone {
		topName = top.String()
	}
	var multiStore int64
	for sb := 2; sb < len(s.MLPJoint); sb++ {
		for lb := range s.MLPJoint[sb] {
			multiStore += s.MLPJoint[sb][lb]
		}
	}
	return SummaryRow{
		Workload:         name,
		Insts:            s.Insts,
		Epochs:           s.Epochs,
		EPI:              s.EPI(),
		MLP:              s.MLP(),
		StoreMLP:         s.StoreMLP(),
		LoadInstMLP:      s.LoadInstMLP(),
		StoreMisses:      s.StoreMisses,
		LoadMisses:       s.LoadMisses,
		InstMisses:       s.InstMisses,
		OverlappedStores: s.OverlappedStores,
		ExposedStores:    s.ExposedStores,
		SMACAccelerated:  s.SMACAccelerated,
		EpochsWithStore:  s.EpochsWithStore,
		MultiStoreEpochs: multiStore,
		TopTermCond:      topName,
		Snoops:           s.Snoops,
	}
}

// RenderSummary prints the run-summary counters, one row per workload.
func RenderSummary(rows []SummaryRow) string {
	t := metrics.NewTable("Run summary: default configuration, all counters",
		"workload", "insts", "epochs", "EPI", "MLP", "storeMLP", "ldInstMLP",
		"storeMiss", "loadMiss", "instMiss", "overlapped", "exposed",
		"smacAccel", "storeEpochs", "multiStore", "topTerm", "snoops")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Insts, r.Epochs, r.EPI, r.MLP, r.StoreMLP,
			r.LoadInstMLP, r.StoreMisses, r.LoadMisses, r.InstMisses,
			r.OverlappedStores, r.ExposedStores, r.SMACAccelerated,
			r.EpochsWithStore, r.MultiStoreEpochs, r.TopTermCond, r.Snoops)
	}
	return t.String()
}
