package epoch

import (
	"math"
	"testing"
)

// TestMergedMetricsAreUnionMetrics pins the derived-metric formulas:
// EPI, StoreMLP and LoadInstMLP are ratios of counter totals (epochs per
// kilo-instruction, misses over their epoch populations), not averages
// of per-epoch ratios. StoreMLP averages over the epochs with a store
// miss, LoadInstMLP over every epoch (each epoch has a miss).
func TestMergedMetricsAreUnionMetrics(t *testing.T) {
	s := Stats{Insts: 4000, Epochs: 30, StoreMisses: 22, LoadMisses: 40, InstMisses: 5,
		EpochsWithStore: 10}
	if got, want := s.EPI(), 1000*30.0/4000; math.Abs(got-want) > 1e-12 {
		t.Errorf("EPI = %v, want %v", got, want)
	}
	if got, want := s.StoreMLP(), 22.0/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("StoreMLP = %v, want %v", got, want)
	}
	if got, want := s.LoadInstMLP(), 45.0/30; math.Abs(got-want) > 1e-12 {
		t.Errorf("LoadInstMLP = %v, want %v", got, want)
	}
}

func TestLoadInstMLPZeroEpochs(t *testing.T) {
	var s Stats
	if s.LoadInstMLP() != 0 {
		t.Error("LoadInstMLP of empty stats should be 0")
	}
}
