package sim

import (
	"context"
	"testing"

	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/isa"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

const (
	testInsts = 400_000
	testWarm  = 200_000
)

// runSpec runs s to completion on a leased engine.
func runSpec(s Spec) (*epoch.Stats, error) {
	return RunContext(context.Background(), s)
}

func mustRun(t *testing.T, w workload.Params, cfg uarch.Config) *epoch.Stats {
	t.Helper()
	s, err := runSpec(Spec{Workload: w, Config: cfg, Insts: testInsts, Warm: testWarm})
	if err != nil {
		t.Fatalf("run(%s, %s): %v", w.Name, cfg.Name(), err)
	}
	return s
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Workload: workload.TPCW(1), Config: uarch.Default(), Insts: 10, Warm: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec invalid: %v", err)
	}
	bad := good
	bad.Insts = 0
	if bad.Validate() == nil {
		t.Error("zero insts should be invalid")
	}
	bad = good
	bad.Warm = -1
	if bad.Validate() == nil {
		t.Error("negative warm should be invalid")
	}
	bad = good
	bad.Config.ROB = 0
	if bad.Validate() == nil {
		t.Error("bad uarch should be invalid")
	}
	bad = good
	bad.Workload.Name = ""
	if bad.Validate() == nil {
		t.Error("bad workload should be invalid")
	}
	if _, err := runSpec(bad); err == nil {
		t.Error("RunContext should propagate validation errors")
	}
}

func TestBuildSourceTransforms(t *testing.T) {
	w := workload.SPECjbb(5)
	count := func(cfg uarch.Config, op isa.Op) int {
		n := 0
		for _, in := range trace.Collect(BuildSource(w, cfg, 100_000)).Insts {
			if in.Op == op {
				n++
			}
		}
		return n
	}
	pc := uarch.Default()
	if count(pc, isa.OpCASA) == 0 {
		t.Error("PC source should contain casa")
	}
	if count(pc, isa.OpISync) != 0 {
		t.Error("PC source should not contain isync")
	}
	wc := uarch.Default()
	wc.Model = consistency.WC
	if count(wc, isa.OpCASA) != 0 {
		t.Error("WC source should have no casa (rewritten)")
	}
	if count(wc, isa.OpISync) == 0 || count(wc, isa.OpLWSync) == 0 {
		t.Error("WC source should contain isync and lwsync")
	}
	sle := uarch.Default()
	sle.SLE = true
	if count(sle, isa.OpCASA) != 0 {
		t.Error("SLE source should have no lock casa")
	}
	wcSLE := wc
	wcSLE.SLE = true
	if count(wcSLE, isa.OpISync) != 0 {
		t.Error("WC+SLE source should have no lock isync")
	}
}

// Directional results from the paper, asserted for every workload:
// store prefetching helps (Sp2 <= Sp1 <= Sp0), perfect stores lower-bound
// everything, and WC beats PC.
func TestPrefetchOrderingAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	for _, w := range workload.All(1) {
		epi := map[uarch.PrefetchMode]float64{}
		for _, m := range []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2} {
			cfg := uarch.Default()
			cfg.StorePrefetch = m
			epi[m] = mustRun(t, w, cfg).EPI()
		}
		perfCfg := uarch.Default()
		perfCfg.PerfectStores = true
		perfect := mustRun(t, w, perfCfg).EPI()

		if epi[uarch.Sp1] > epi[uarch.Sp0]*1.02 {
			t.Errorf("%s: Sp1 (%.2f) should not exceed Sp0 (%.2f)", w.Name, epi[uarch.Sp1], epi[uarch.Sp0])
		}
		if epi[uarch.Sp2] > epi[uarch.Sp1]*1.02 {
			t.Errorf("%s: Sp2 (%.2f) should not exceed Sp1 (%.2f)", w.Name, epi[uarch.Sp2], epi[uarch.Sp1])
		}
		if perfect > epi[uarch.Sp2]*1.02 {
			t.Errorf("%s: perfect (%.2f) should lower-bound Sp2 (%.2f)", w.Name, perfect, epi[uarch.Sp2])
		}
		// Missing stores contribute a significant share without
		// prefetching (paper: 17%-46%).
		contrib := (epi[uarch.Sp0] - perfect) / epi[uarch.Sp0]
		if contrib < 0.08 {
			t.Errorf("%s: Sp0 store contribution = %.2f, want noticeable", w.Name, contrib)
		}
	}
}

func TestWCBeatsPC(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	for _, w := range workload.All(2) {
		pc := mustRun(t, w, uarch.Default()).EPI()
		wcCfg := uarch.Default()
		wcCfg.Model = consistency.WC
		wc := mustRun(t, w, wcCfg).EPI()
		if wc >= pc {
			t.Errorf("%s: WC EPI (%.2f) should be below PC (%.2f)", w.Name, wc, pc)
		}
	}
}

func TestSLENarrowsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	// For the lock-bound workloads, SLE + prefetch-past-serializing (PC3)
	// must close most of the PC1-WC1 gap.
	w := workload.SPECjbb(3)
	pc1 := mustRun(t, w, uarch.Default()).EPI()
	wcCfg := uarch.Default()
	wcCfg.Model = consistency.WC
	wc1 := mustRun(t, w, wcCfg).EPI()
	pc3Cfg := uarch.Default()
	pc3Cfg.SLE = true
	pc3Cfg.PrefetchPastSerializing = true
	pc3 := mustRun(t, w, pc3Cfg).EPI()
	if pc3 >= pc1 {
		t.Errorf("PC3 (%.2f) should improve on PC1 (%.2f)", pc3, pc1)
	}
	gap1 := pc1 - wc1
	wc3Cfg := wcCfg
	wc3Cfg.SLE = true
	wc3Cfg.PrefetchPastSerializing = true
	wc3 := mustRun(t, w, wc3Cfg).EPI()
	gap3 := pc3 - wc3
	if gap1 <= 0 {
		t.Fatalf("no PC-WC gap to close (pc1=%.2f wc1=%.2f)", pc1, wc1)
	}
	if gap3 > 0.6*gap1 {
		t.Errorf("SLE should narrow the consistency gap: gap1=%.3f gap3=%.3f", gap1, gap3)
	}
}

func TestHWSOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	w := workload.TPCW(4)
	epi := map[uarch.HWSMode]float64{}
	for _, m := range []uarch.HWSMode{uarch.NoHWS, uarch.HWS0, uarch.HWS1, uarch.HWS2} {
		cfg := uarch.Default()
		cfg.HWS = m
		epi[m] = mustRun(t, w, cfg).EPI()
	}
	if epi[uarch.HWS0] > epi[uarch.NoHWS]*1.02 {
		t.Errorf("HWS0 (%.3f) should not exceed NoHWS (%.3f)", epi[uarch.HWS0], epi[uarch.NoHWS])
	}
	if epi[uarch.HWS1] > epi[uarch.HWS0]*1.02 {
		t.Errorf("HWS1 (%.3f) should not exceed HWS0 (%.3f)", epi[uarch.HWS1], epi[uarch.HWS0])
	}
	if epi[uarch.HWS2] > epi[uarch.HWS1]*1.02 {
		t.Errorf("HWS2 (%.3f) should not exceed HWS1 (%.3f)", epi[uarch.HWS2], epi[uarch.HWS1])
	}
	// HWS2 nearly eliminates the store impact.
	perfCfg := uarch.Default()
	perfCfg.PerfectStores = true
	perfCfg.HWS = uarch.HWS2
	perfect := mustRun(t, w, perfCfg).EPI()
	if (epi[uarch.HWS2]-perfect)/perfect > 0.35 {
		t.Errorf("HWS2 (%.3f) should approach perfect stores (%.3f)", epi[uarch.HWS2], perfect)
	}
}

// smacDemo is a store-intensive calibration whose churn sweep wraps
// within a short run, so the SMAC's evict-then-revisit reuse pattern is
// observable at test scale (the paper needed 1B warm instructions at
// full scale; see DESIGN.md).
func smacDemo() workload.Params {
	return workload.Params{
		Name: "smacdemo", Seed: 5,
		StorePer100: 12, LoadPer100: 20, BranchPer100: 12,
		StoreMissPer100: 2.0, LoadMissPer100: 2.0, InstMissPer100: 0.01,
		StoreBurstMean: 2, LoadBurstMean: 1.5,
		LocksPer1000: 1.0, PreLockFrac: 0.3, MembarPer1000: 0.05,
		MispredPer1000: 3, DepLoadFrac: 0.2,
		StoreWSBytes: 1536 << 10, LoadWSBytes: 64 << 20, CodeWSBytes: 8 << 20,
		SharedStoreFrac: 0.05, SharedWSBytes: 1 << 20,
		SnoopsPerKiloInst: 0.5, SnoopStoreFrac: 0.75,
		OnChipBaseCPI: 0.8,
	}
}

func TestSMACImprovesStores(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	w := smacDemo()
	runSmac := func(entries int) *epoch.Stats {
		cfg := uarch.Default()
		cfg.StorePrefetch = uarch.Sp0
		cfg.SMACEntries = entries
		s, err := runSpec(Spec{Workload: w, Config: cfg, Insts: 1_200_000, Warm: 1_800_000})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	noSmac := runSmac(0)
	withSmac := runSmac(8 << 10)
	if withSmac.SMACAccelerated == 0 {
		t.Fatal("SMAC should accelerate some store misses")
	}
	if withSmac.EPI() >= noSmac.EPI() {
		t.Errorf("SMAC EPI (%.3f) should be below baseline (%.3f)", withSmac.EPI(), noSmac.EPI())
	}
	// An undersized SMAC (coverage below the churn working set)
	// accelerates less than a covering one.
	small := runSmac(256)
	if small.SMACAccelerated >= withSmac.SMACAccelerated {
		t.Errorf("256-entry SMAC accelerated %d >= 8K SMAC %d",
			small.SMACAccelerated, withSmac.SMACAccelerated)
	}
}

func TestTrafficAttaches(t *testing.T) {
	w := workload.TPCW(6)
	cfg := uarch.Default()
	cfg.SMACEntries = 32 << 10
	s, err := runSpec(Spec{Workload: w, Config: cfg, Insts: 200_000, Warm: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Snoops == 0 {
		t.Error("2-node run should deliver snoops")
	}
	off, err := runSpec(Spec{Workload: w, Config: cfg, Insts: 200_000, Warm: 100_000, DisableTraffic: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Snoops != 0 {
		t.Error("DisableTraffic run should deliver no snoops")
	}
}

func TestSharedCoreInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full simulation runs")
	}
	w := workload.SPECjbb(8)
	solo, err := runSpec(Spec{Workload: w, Config: uarch.Default(), Insts: testInsts, Warm: testWarm})
	if err != nil {
		t.Fatal(err)
	}
	co, err := runSpec(Spec{Workload: w, Config: uarch.Default(), Insts: testInsts, Warm: testWarm, SharedCore: true})
	if err != nil {
		t.Fatal(err)
	}
	if co.EPI() <= solo.EPI() {
		t.Errorf("co-scheduled EPI (%.3f) should exceed solo (%.3f)", co.EPI(), solo.EPI())
	}
}
