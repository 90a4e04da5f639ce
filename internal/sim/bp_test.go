package sim

import (
	"testing"

	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// With the modelled gshare front end, EPI should land near the
// flag-based calibration (the generator's outcome patterns are tuned to
// give commercial-workload misprediction rates), and the predictor must
// actually be exercised.
func TestModelledBranchPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	w := workload.SPECweb(4)
	flagged := mustRun(t, w, uarch.Default())
	cfg := uarch.Default()
	cfg.ModelBranchPredictor = true
	modelled := mustRun(t, w, cfg)
	ratio := modelled.EPI() / flagged.EPI()
	if ratio < 0.85 || ratio > 1.35 {
		t.Errorf("modelled-predictor EPI %.3f vs flagged %.3f (ratio %.2f) out of band",
			modelled.EPI(), flagged.EPI(), ratio)
	}
}
