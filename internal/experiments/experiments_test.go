package experiments

import (
	"context"
	"errors"
	"math"
	"testing"

	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// small returns a configuration fast enough for unit tests but long
// enough for directional assertions.
func small() Config {
	return Config{Seed: 1, Insts: 300_000, Warm: 200_000}
}

func TestParMap(t *testing.T) {
	out := make([]int, 100)
	if err := parMap(context.Background(), 100, 8, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	wantErr := errors.New("boom")
	if err := parMap(context.Background(), 10, 2, func(i int) error {
		if i == 5 {
			return wantErr
		}
		return nil
	}); err == nil || !errors.Is(err, wantErr) {
		t.Errorf("parMap error = %v", err)
	}
	if err := parMap(context.Background(), 3, 0, func(int) error { return nil }); err != nil {
		t.Errorf("parallelism 0 should clamp: %v", err)
	}
}

func TestParMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := parMap(ctx, 50, 1, func(i int) error { ran++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("launched %d fns under a cancelled context", ran)
	}
}

func TestSweepCancellation(t *testing.T) {
	// A cancelled context must abort a full-figure sweep with its error,
	// not run it to completion.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := small()
	c.Ctx = ctx
	if _, err := Table2(c); !errors.Is(err, context.Canceled) {
		t.Fatalf("Table2 under cancelled ctx: err = %v", err)
	}
}

// TestSweep pins the runner's contract: rows workload by workload in
// c.Workloads order and each workload's in cells' order at any
// parallelism, spec sees the normalized config, record runs once per
// cell with that cell's run, and a failing run fails the sweep.
func TestSweep(t *testing.T) {
	type cell struct {
		Workload string
		K        int
		Insts    int64
		Records  int
	}
	for _, par := range []int{1, 3} {
		c := Config{Insts: 2000, Parallelism: par}
		rows, err := sweep(c, func(w workload.Params) []cell {
			return []cell{{Workload: w.Name, K: 1}, {Workload: w.Name, K: 2}, {Workload: w.Name, K: 3}}
		}, func(c Config, w workload.Params, x *cell) sim.Spec {
			if c.Seed != 1 || c.Parallelism != par {
				t.Errorf("spec saw an unnormalized config: %+v", c)
			}
			spec := c.spec(w, uarch.Default())
			spec.Insts *= int64(x.K)
			return spec
		}, func(x *cell, s *epoch.Stats) {
			x.Insts = s.Insts
			x.Records++
		})
		if err != nil {
			t.Fatal(err)
		}
		ws := workload.All(1)
		if len(rows) != 3*len(ws) {
			t.Fatalf("parallelism %d: %d rows, want %d", par, len(rows), 3*len(ws))
		}
		for i, r := range rows {
			want := cell{Workload: ws[i/3].Name, K: i%3 + 1, Insts: 2000 * int64(i%3+1), Records: 1}
			if r != want {
				t.Errorf("parallelism %d: row %d = %+v, want %+v", par, i, r, want)
			}
		}
	}
	rows, err := sweep(Config{Insts: 2000}, func(w workload.Params) []cell {
		return []cell{{Workload: w.Name}}
	}, func(c Config, w workload.Params, _ *cell) sim.Spec {
		spec := c.spec(w, uarch.Default())
		spec.Config.StoreBuffer = 0
		return spec
	}, func(*cell, *epoch.Stats) { t.Error("record called for a failed run") })
	if err == nil || rows != nil {
		t.Errorf("invalid spec: rows %v, err %v; want nil rows and an error", rows, err)
	}
}

func TestConfigNorm(t *testing.T) {
	c := Config{}.norm()
	if c.Seed != 1 || c.Insts != 2_000_000 || c.Parallelism < 1 || len(c.Workloads) != 4 {
		t.Errorf("norm = %+v", c)
	}
	d := DefaultConfig()
	if d.Insts != 2_000_000 || d.Warm != 1_000_000 {
		t.Errorf("DefaultConfig = %+v", d)
	}
}

// TestSummaryRows pins the summary's shape: one row per configured
// workload, in order, each covering exactly the measured instructions
// of that workload's run, and no cross-workload aggregate row.
func TestSummaryRows(t *testing.T) {
	c := Config{Seed: 1, Insts: 20_000, Warm: 10_000}
	rows, err := Summary(c)
	if err != nil {
		t.Fatal(err)
	}
	ws := workload.All(c.Seed)
	if len(rows) != len(ws) {
		t.Fatalf("rows = %d, want one per workload (%d)", len(rows), len(ws))
	}
	for i, r := range rows {
		if r.Workload == "all" {
			t.Errorf("row %d is a cross-workload aggregate", i)
		}
		if r.Workload != ws[i].Name {
			t.Errorf("row %d workload %q, want %q", i, r.Workload, ws[i].Name)
		}
		if r.Insts != c.Insts {
			t.Errorf("%s: Insts = %d, want %d", r.Workload, r.Insts, c.Insts)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, row := range rows {
		w := workload.All(1)[i]
		if row.Workload != w.Name {
			t.Errorf("row %d workload %q", i, row.Workload)
		}
		if math.Abs(row.StoreFreq-w.StorePer100) > 0.15*w.StorePer100 {
			t.Errorf("%s store freq %.2f, want ~%.2f", row.Workload, row.StoreFreq, w.StorePer100)
		}
		if row.StoreMiss <= 0 || row.LoadMiss <= 0 {
			t.Errorf("%s: zero miss rates: %+v", row.Workload, row)
		}
	}
	// Database has the highest store frequency and miss rate (Table 1).
	for _, row := range rows[1:] {
		if rows[0].StoreFreq <= row.StoreFreq {
			t.Errorf("database store freq should lead: %v vs %v", rows[0], row)
		}
	}
}

func TestTable2Bounds(t *testing.T) {
	rows, err := Table2(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Overlapped < 0 || r.Overlapped > 0.5 {
			t.Errorf("%s overlapped = %.3f; paper: most stores NOT overlappable", r.Workload, r.Overlapped)
		}
	}
}

func TestTable3Band(t *testing.T) {
	rows, err := Table3(small())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 3: 1.11, 1.12, 0.95, 1.38. Allow a band.
	want := map[string]float64{"database": 1.11, "tpcw": 1.12, "specjbb": 0.95, "specweb": 1.38}
	for _, r := range rows {
		if math.Abs(r.CPIOnChip-want[r.Workload]) > 0.25 {
			t.Errorf("%s CPIon-chip = %.2f, want ~%.2f", r.Workload, r.CPIOnChip, want[r.Workload])
		}
	}
}

func TestFigure2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	c.Workloads = []workload.Params{workload.TPCW(1)}
	cells, err := Figure2(c)
	if err != nil {
		t.Fatal(err)
	}
	// 3 prefetch x 3 SB x 4 SQ + 1 perfect
	if len(cells) != 37 {
		t.Fatalf("cells = %d, want 37", len(cells))
	}
	get := func(sp uarch.PrefetchMode, sb, sq int) float64 {
		for _, cell := range cells {
			if !cell.Perfect && cell.Prefetch == sp && cell.SB == sb && cell.SQ == sq {
				return cell.EPI
			}
		}
		t.Fatalf("cell %v/%d/%d missing", sp, sb, sq)
		return 0
	}
	var perfect float64
	for _, cell := range cells {
		if cell.Perfect {
			perfect = cell.EPI
		}
		if cell.EPI <= 0 {
			t.Fatalf("cell with zero EPI: %+v", cell)
		}
	}
	// Monotonicity: larger SQ never hurts; prefetching never hurts.
	if get(uarch.Sp0, 16, 256) > get(uarch.Sp0, 16, 16)*1.02 {
		t.Error("larger SQ should not increase EPI")
	}
	if get(uarch.Sp1, 16, 32) > get(uarch.Sp0, 16, 32)*1.02 {
		t.Error("Sp1 should not exceed Sp0")
	}
	if perfect > get(uarch.Sp2, 32, 256)*1.02 {
		t.Error("perfect stores should lower-bound the sweep")
	}
}

func TestFigure3StoreSerializeShift(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	c.Workloads = []workload.Params{workload.SPECjbb(1)}
	rows, err := Figure3(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var a, b Fig3Row
	for _, r := range rows {
		if r.Variant == "A" {
			a = r
		} else {
			b = r
		}
	}
	// Paper: store serialize dominates for SPECjbb in (A) and becomes
	// negligible under SLE+PPS in (B).
	if a.Fractions[epoch.TermStoreSerialize] < 0.3 {
		t.Errorf("A: store serialize = %.3f, want dominant", a.Fractions[epoch.TermStoreSerialize])
	}
	if b.Fractions[epoch.TermStoreSerialize] > 0.1 {
		t.Errorf("B: store serialize = %.3f, want negligible", b.Fractions[epoch.TermStoreSerialize])
	}
}

func TestFigure4Distributions(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	rows, err := Figure4(c)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// Database store misses overlap well (high store MLP); SPECjbb's
	// mostly cannot overlap with anything (the expensive [1][0] bucket).
	if byName["database"].StoreMLP < 1.8 {
		t.Errorf("database store MLP = %.2f, want high", byName["database"].StoreMLP)
	}
	if byName["specjbb"].StoreMLP > byName["database"].StoreMLP {
		t.Error("specjbb store MLP should be below database")
	}
	jbb := byName["specjbb"]
	var jbbStoreEpochs, expensive float64
	for sb := 1; sb <= epoch.MaxStoreMLPBucket; sb++ {
		for lb := 0; lb <= epoch.MaxLoadInstBucket; lb++ {
			jbbStoreEpochs += jbb.Joint[sb][lb]
		}
	}
	expensive = jbb.Joint[1][0]
	if jbbStoreEpochs == 0 || expensive/jbbStoreEpochs < 0.25 {
		t.Errorf("specjbb expensive-store share = %.3f, want prevalent", expensive/jbbStoreEpochs)
	}
}

func TestFigure5SMACHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("slow SMAC sweep")
	}
	c := small()
	c.Insts = 600_000 // scaled by smacSpec to 1.2M/2.1M
	c.Workloads = []workload.Params{workload.Database(1)}
	cells, err := Figure5(c)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sp uarch.PrefetchMode, entries int) Fig5Cell {
		for _, cell := range cells {
			if !cell.Perfect && cell.Prefetch == sp && cell.SMACEntries == entries {
				return cell
			}
		}
		t.Fatalf("missing cell %v/%d", sp, entries)
		return Fig5Cell{}
	}
	none := get(uarch.Sp0, 0)
	big := get(uarch.Sp0, 4<<10)
	if big.Accelerated == 0 {
		t.Fatal("large SMAC accelerated nothing")
	}
	if big.EPI >= none.EPI {
		t.Errorf("SMAC EPI %.3f should beat none %.3f", big.EPI, none.EPI)
	}
	smallc := get(uarch.Sp0, 256)
	if smallc.Accelerated > big.Accelerated {
		t.Error("SMAC acceleration should not decrease with size")
	}
}

func TestFigure6Scaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow SMAC sweep")
	}
	c := small()
	c.Insts = 600_000
	c.Workloads = []workload.Params{workload.TPCW(1)}
	cells, err := Figure6(c)
	if err != nil {
		t.Fatal(err)
	}
	// 2 node counts x 5 sizes
	if len(cells) != 10 {
		t.Fatalf("cells = %d", len(cells))
	}
	var inv2, inv4 float64
	for _, cell := range cells {
		if cell.SMACEntries == 4<<10 {
			if cell.Nodes == 2 {
				inv2 = cell.InvalPer1000
			} else {
				inv4 = cell.InvalPer1000
			}
		}
	}
	if inv4 <= inv2 {
		t.Errorf("4-node invalidates (%.3f) should exceed 2-node (%.3f)", inv4, inv2)
	}
}

func TestFigure7Gap(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	c.Workloads = []workload.Params{workload.SPECweb(1)}
	cells, err := Figure7(c)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfgName string, sp uarch.PrefetchMode, perfect bool) float64 {
		for _, cell := range cells {
			if cell.Config == cfgName && cell.Prefetch == sp && cell.Perfect == perfect {
				return cell.EPI
			}
		}
		t.Fatalf("missing %s/%v/%v", cfgName, sp, perfect)
		return 0
	}
	pc1 := get("PC1", uarch.Sp1, false)
	wc1 := get("WC1", uarch.Sp1, false)
	pc3 := get("PC3", uarch.Sp1, false)
	wc3 := get("WC3", uarch.Sp1, false)
	if wc1 >= pc1 {
		t.Errorf("WC1 (%.3f) should beat PC1 (%.3f)", wc1, pc1)
	}
	if pc3 >= pc1 {
		t.Errorf("PC3 (%.3f) should beat PC1 (%.3f)", pc3, pc1)
	}
	if gap3, gap1 := pc3-wc3, pc1-wc1; gap3 > 0.75*gap1 {
		t.Errorf("SLE+PPS should narrow the gap: %.3f vs %.3f", gap3, gap1)
	}
	// Perfect segments lower-bound their bars.
	if p := get("PC1", uarch.Sp1, true); p > pc1 {
		t.Errorf("perfect (%.3f) should not exceed with-stores (%.3f)", p, pc1)
	}
}

func TestFigure8HWS2(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	c.Workloads = []workload.Params{workload.TPCW(1)}
	cells, err := Figure8(c)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m consistency.Model, h uarch.HWSMode, perfect bool) float64 {
		for _, cell := range cells {
			if cell.Model == m && cell.HWS == h && cell.Perfect == perfect {
				return cell.EPI
			}
		}
		t.Fatalf("missing %v/%v/%v", m, h, perfect)
		return 0
	}
	noHWS := get(consistency.PC, uarch.NoHWS, false)
	hws2 := get(consistency.PC, uarch.HWS2, false)
	hws2perf := get(consistency.PC, uarch.HWS2, true)
	if hws2 >= noHWS {
		t.Errorf("HWS2 (%.3f) should beat NoHWS (%.3f)", hws2, noHWS)
	}
	if hws2perf > 0 && (hws2-hws2perf)/hws2perf > 0.35 {
		t.Errorf("HWS2 (%.3f) should approach its perfect segment (%.3f)", hws2, hws2perf)
	}
	// HWS2 narrows the PC-WC gap substantially (the paper's Figure 8
	// also retains a small residual gap).
	wcHws2 := get(consistency.WC, uarch.HWS2, false)
	gapNo := noHWS - get(consistency.WC, uarch.NoHWS, false)
	gapH2 := hws2 - wcHws2
	if gapH2 > 0.7*gapNo && gapH2 > 0.08 {
		t.Errorf("HWS2 gap (%.3f) should be well below NoHWS gap (%.3f)", gapH2, gapNo)
	}
}

func TestAblationCoalescing(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	c.Workloads = []workload.Params{workload.Database(1)}
	cells, err := AblationCoalescing(c)
	if err != nil {
		t.Fatal(err)
	}
	get := func(gran, sq int) float64 {
		for _, cell := range cells {
			if cell.CoalesceBytes == gran && cell.SQ == sq {
				return cell.EPI
			}
		}
		t.Fatalf("missing %d/%d", gran, sq)
		return 0
	}
	// Coarser coalescing never hurts at a given SQ size.
	if get(64, 32) > get(0, 32)*1.02 {
		t.Errorf("64B coalescing (%.3f) should not exceed none (%.3f)", get(64, 32), get(0, 32))
	}
}

func TestAblationBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("slow SMAC runs")
	}
	c := small()
	c.Insts = 600_000
	c.Workloads = []workload.Params{workload.Database(1)}
	cells, err := AblationBandwidth(c)
	if err != nil {
		t.Fatal(err)
	}
	get := func(s string) BandwidthCell {
		for _, cell := range cells {
			if cell.Scheme == s {
				return cell
			}
		}
		t.Fatalf("missing %s", s)
		return BandwidthCell{}
	}
	sp1 := get("Sp1")
	smac := get("Sp0+SMAC")
	if sp1.PrefetchReqs == 0 {
		t.Error("Sp1 should issue prefetch traffic")
	}
	if smac.PrefetchReqs != 0 {
		t.Error("Sp0+SMAC should issue no prefetch traffic")
	}
	if smac.SMACAccelerated == 0 {
		t.Error("Sp0+SMAC should accelerate stores")
	}
}

func TestAblationScoutReach(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	c := small()
	c.Workloads = []workload.Params{workload.TPCW(1)}
	cells, err := AblationScoutReach(c)
	if err != nil {
		t.Fatal(err)
	}
	var shortR, longR float64
	for _, cell := range cells {
		if cell.Reach == 64 {
			shortR = cell.EPI
		}
		if cell.Reach == 1024 {
			longR = cell.EPI
		}
	}
	if longR > shortR*1.02 {
		t.Errorf("longer scout reach (%.3f) should not exceed short (%.3f)", longR, shortR)
	}
}
