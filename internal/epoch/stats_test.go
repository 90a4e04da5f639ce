package epoch

import (
	"math"
	"testing"
)

// TestMergedMetricsAreUnionMetrics pins the derived-metric formulas:
// EPI, StoreMLP and LoadInstMLP are ratios of counter totals (epochs per
// kilo-instruction, MLP sums over their epoch populations), not
// averages of per-epoch ratios.
func TestMergedMetricsAreUnionMetrics(t *testing.T) {
	s := Stats{Insts: 4000, Epochs: 30, StoreMisses: 22,
		EpochsWithStore: 10, storeMLPSum: 22, loadInstMLPSum: 45, epochsWithAny: 18}
	if got, want := s.EPI(), 1000*30.0/4000; math.Abs(got-want) > 1e-12 {
		t.Errorf("EPI = %v, want %v", got, want)
	}
	if got, want := s.StoreMLP(), 22.0/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("StoreMLP = %v, want %v", got, want)
	}
	if got, want := s.LoadInstMLP(), 45.0/18; math.Abs(got-want) > 1e-12 {
		t.Errorf("LoadInstMLP = %v, want %v", got, want)
	}
}

func TestLoadInstMLPZeroEpochs(t *testing.T) {
	var s Stats
	if s.LoadInstMLP() != 0 {
		t.Error("LoadInstMLP of empty stats should be 0")
	}
}
