package workload

import (
	"math"
	"testing"

	"storemlp/internal/cache"
	"storemlp/internal/isa"
	"storemlp/internal/trace"
)

func TestParamsValidate(t *testing.T) {
	for _, p := range All(1) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		if err := p.Traffic().Validate(); err != nil {
			t.Errorf("%s traffic invalid: %v", p.Name, err)
		}
	}
	bad := Database(1)
	bad.StoreMissPer100 = bad.StorePer100 + 1
	if bad.Validate() == nil {
		t.Error("miss rate > access rate should be invalid")
	}
	bad = Database(1)
	bad.PreLockFrac = 1.5
	if bad.Validate() == nil {
		t.Error("fraction > 1 should be invalid")
	}
	bad = Database(1)
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name should be invalid")
	}
}

func TestParamsValidateRejectsNegativeRates(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Params)
	}{
		{"negative lock rate", func(p *Params) { p.LocksPer1000 = -1 }},
		{"negative membar rate", func(p *Params) { p.MembarPer1000 = -0.1 }},
		{"negative mispredict rate", func(p *Params) { p.MispredPer1000 = -2 }},
		{"negative snoop rate", func(p *Params) { p.SnoopsPerKiloInst = -0.5 }},
		{"negative base CPI", func(p *Params) { p.OnChipBaseCPI = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Database(1)
			tt.mut(&p)
			if p.Validate() == nil {
				t.Error("want error, got nil")
			}
		})
	}
	// Seed and AddrOffset are unconstrained (storemlpvet:novalidate).
	p := Database(-99)
	p.AddrOffset = 1 << 44
	if err := p.Validate(); err != nil {
		t.Errorf("any seed/offset should be valid: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"database", "tpcw", "specjbb", "specweb"} {
		p, err := ByName(name, 7)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
		if p.Name != name || p.Seed != 7 {
			t.Errorf("ByName(%s) = %+v", name, p)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown name should error")
	}
}

func TestNewGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGenerator should panic on invalid params")
		}
	}()
	p := Database(1)
	p.StoreWSBytes = 0
	NewGenerator(p)
}

func TestGeneratorDeterminismAndReset(t *testing.T) {
	g := NewGenerator(TPCW(42))
	a := trace.Collect(trace.Limit(g, 5000))
	g.Reset()
	b := trace.Collect(trace.Limit(g, 5000))
	g2 := NewGenerator(TPCW(42))
	c := trace.Collect(trace.Limit(g2, 5000))
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("Reset diverged at %d: %v vs %v", i, a.Insts[i], b.Insts[i])
		}
		if a.Insts[i] != c.Insts[i] {
			t.Fatalf("fresh generator diverged at %d", i)
		}
	}
	// Different seeds give different streams.
	g3 := NewGenerator(TPCW(43))
	d := trace.Collect(trace.Limit(g3, 5000))
	same := true
	for i := range a.Insts {
		if a.Insts[i] != d.Insts[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestInstructionMix(t *testing.T) {
	for _, p := range All(11) {
		g := NewGenerator(p)
		s := trace.Gather(trace.Limit(g, 400_000))
		storeFreq := s.Per100(s.Stores())
		if math.Abs(storeFreq-p.StorePer100) > 0.12*p.StorePer100 {
			t.Errorf("%s: store freq = %.2f/100, want ~%.2f", p.Name, storeFreq, p.StorePer100)
		}
		loadFreq := s.Per100(s.Loads())
		if math.Abs(loadFreq-p.LoadPer100) > 0.15*p.LoadPer100 {
			t.Errorf("%s: load freq = %.2f/100, want ~%.2f", p.Name, loadFreq, p.LoadPer100)
		}
		// Lock density.
		locksPer1000 := 1000 * float64(s.LockAcquire) / float64(s.Total)
		if p.LocksPer1000 > 0 && math.Abs(locksPer1000-p.LocksPer1000) > 0.3*p.LocksPer1000 {
			t.Errorf("%s: locks = %.2f/1000, want ~%.2f", p.Name, locksPer1000, p.LocksPer1000)
		}
		if s.LockAcquire != s.LockRelease {
			t.Errorf("%s: unbalanced locks %d/%d", p.Name, s.LockAcquire, s.LockRelease)
		}
	}
}

// measureMissRates replays a generator stream through the default cache
// hierarchy and reports off-chip misses per 100 instructions, after a
// warmup prefix.
func measureMissRates(t *testing.T, p Params, warm, measure int64) (store, load, inst float64) {
	t.Helper()
	h := cache.NewHierarchy(cache.DefaultConfig())
	g := NewGenerator(p)
	run := func(n int64) (st, ld, in, tot int64) {
		src := trace.Limit(g, n)
		base := h.Stats
		count := int64(0)
		for _, ins := range trace.Collect(src).Insts {
			count++
			h.Fetch(ins.PC)
			shared := ins.Flags.Has(isa.FlagShared)
			if ins.Op.IsLoad() {
				h.Load(ins.Addr, shared)
			}
			if ins.Op.IsStore() {
				h.Store(ins.Addr, shared)
			}
		}
		return h.Stats.StoreOffChip - base.StoreOffChip,
			h.Stats.LoadOffChip - base.LoadOffChip,
			h.Stats.FetchOffChip - base.FetchOffChip,
			count
	}
	run(warm)
	st, ld, in, tot := run(measure)
	return 100 * float64(st) / float64(tot),
		100 * float64(ld) / float64(tot),
		100 * float64(in) / float64(tot)
}

// Table 1 calibration: generated traces must reproduce the paper's L2
// miss rates within tolerance.
func TestTable1Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs a few million instructions")
	}
	for _, p := range All(3) {
		st, ld, in := measureMissRates(t, p, 600_000, 1_500_000)
		check := func(name string, got, want, tol float64) {
			if math.Abs(got-want) > tol*want+0.01 {
				t.Errorf("%s: %s miss = %.3f/100, want ~%.3f", p.Name, name, got, want)
			}
		}
		check("store", st, p.StoreMissPer100, 0.35)
		check("load", ld, p.LoadMissPer100, 0.35)
		check("inst", in, p.InstMissPer100, 0.5)
	}
}

func TestStoreMissClustering(t *testing.T) {
	// Database store misses come in multi-line bursts; SPECjbb's are
	// mostly singletons. Measure mean run length of consecutive
	// churn-region stores.
	runLen := func(p Params) float64 {
		g := NewGenerator(p)
		src := trace.Limit(g, 500_000)
		var runs, missStores int
		inRun := false
		for _, in := range trace.Collect(src).Insts {
			if in.Op != isa.OpStore {
				continue
			}
			churn := in.Addr >= loadWSBase
			if churn {
				missStores++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(missStores) / float64(runs)
	}
	db := runLen(Database(5))
	jbb := runLen(SPECjbb(5))
	if db < 2.5 {
		t.Errorf("database burst length = %.2f, want >= 2.5", db)
	}
	if jbb > 1.6 {
		t.Errorf("specjbb burst length = %.2f, want <= 1.6", jbb)
	}
	if db <= jbb {
		t.Errorf("database bursts (%.2f) should exceed specjbb (%.2f)", db, jbb)
	}
}

func TestSharedFlagsAndRegions(t *testing.T) {
	p := TPCW(9)
	g := NewGenerator(p)
	src := trace.Limit(g, 300_000)
	var sharedStores, churnStores int
	for _, in := range trace.Collect(src).Insts {
		if in.Op != isa.OpStore {
			continue
		}
		if in.Addr >= sharedWSBase {
			if !in.Flags.Has(isa.FlagShared) {
				t.Fatal("shared-region store missing FlagShared")
			}
			if in.Addr >= sharedWSBase+uint64(p.SharedWSBytes) {
				t.Fatalf("shared store outside region: %#x", in.Addr)
			}
			sharedStores++
		} else if in.Addr >= storeWSBase {
			churnStores++
		}
	}
	if sharedStores == 0 {
		t.Error("no shared stores generated")
	}
	frac := float64(sharedStores) / float64(sharedStores+churnStores)
	if math.Abs(frac-p.SharedStoreFrac) > 0.5*p.SharedStoreFrac {
		t.Errorf("shared store fraction = %.3f, want ~%.3f", frac, p.SharedStoreFrac)
	}
}

func TestCriticalSectionShape(t *testing.T) {
	g := NewGenerator(SPECjbb(13))
	src := trace.Limit(g, 200_000)
	insts := trace.Collect(src)
	found := 0
	for i, in := range insts.Insts {
		if in.Op != isa.OpCASA {
			continue
		}
		found++
		if !in.Flags.Has(isa.FlagLockAcquire) {
			t.Fatal("casa without acquire flag")
		}
		// A release store to the same address must follow.
		ok := false
		for j := i + 1; j < len(insts.Insts) && j < i+40; j++ {
			rel := insts.Insts[j]
			if rel.Op == isa.OpStore && rel.Addr == in.Addr {
				if !rel.Flags.Has(isa.FlagLockRelease) {
					t.Fatal("lock release store missing flag")
				}
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("no release found for casa at %d", i)
		}
	}
	if found == 0 {
		t.Error("no critical sections generated")
	}
}

func TestMispredictsGenerated(t *testing.T) {
	g := NewGenerator(SPECweb(17))
	s := trace.Gather(trace.Limit(g, 300_000))
	per1000 := 1000 * float64(s.Mispredicts) / float64(s.Total)
	p := SPECweb(17)
	if math.Abs(per1000-p.MispredPer1000) > 0.35*p.MispredPer1000 {
		t.Errorf("mispredicts = %.2f/1000, want ~%.2f", per1000, p.MispredPer1000)
	}
}

func TestRegisterBounds(t *testing.T) {
	g := NewGenerator(Database(23))
	src := trace.Limit(g, 100_000)
	for _, in := range trace.Collect(src).Insts {
		if int(in.Dst) >= isa.RegCount || int(in.Src1) >= isa.RegCount || int(in.Src2) >= isa.RegCount {
			t.Fatalf("register out of range: %v", in)
		}
		if !in.Op.Valid() {
			t.Fatalf("invalid op: %v", in)
		}
		if in.Op.IsMem() && in.Size == 0 {
			t.Fatalf("memory op with zero size: %v", in)
		}
	}
}
