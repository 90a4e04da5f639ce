package onchip

import (
	"math"
	"testing"

	"storemlp/internal/trace"
	"storemlp/internal/workload"
)

func TestModelCPI(t *testing.T) {
	m := DefaultModel()
	var zero Inputs
	if m.CPI(zero) != 0 {
		t.Error("zero inputs should give 0")
	}
	base := Inputs{Insts: 1000, BaseCPI: 0.8}
	if got := m.CPI(base); got != 0.8 {
		t.Errorf("base-only CPI = %v", got)
	}
	// Each component adds.
	withL1D := base
	withL1D.L1DLoadMiss = 100
	if m.CPI(withL1D) <= 0.8 {
		t.Error("L1D misses should add CPI")
	}
	withL1I := base
	withL1I.L1IMiss = 100
	if m.CPI(withL1I) <= 0.8 {
		t.Error("L1I misses should add CPI")
	}
	withBr := base
	withBr.Mispredicts = 10
	if got := m.CPI(withBr); math.Abs(got-(0.8+0.01*11)) > 1e-9 {
		t.Errorf("mispredict CPI = %v", got)
	}
}

func TestOverallCPI(t *testing.T) {
	// §3.4: CPIoverall = CPIon-chip*(1-Overlap) + EPI*MissPenalty.
	got := OverallCPI(1.2, 0.25, 0.005, 500)
	want := 1.2*0.75 + 0.005*500
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("OverallCPI = %v, want %v", got, want)
	}
}

func TestMeasureErrors(t *testing.T) {
	bad := workload.Database(1)
	bad.Name = ""
	if _, err := Measure(bad, 0, 1000); err == nil {
		t.Error("invalid workload should error")
	}
	if _, err := Measure(workload.Database(1), 0, 0); err == nil {
		t.Error("zero length should error")
	}
}

// Table 3 reproduction: the calibrated bases plus measured L1/branch
// components land on the paper's CPIon-chip values.
func TestTable3Values(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a million-instruction replay")
	}
	want := map[string]float64{
		"database": 1.11, "tpcw": 1.12, "specjbb": 0.95, "specweb": 1.38,
	}
	m := DefaultModel()
	for _, p := range workload.All(1) {
		in, err := Measure(p, 400_000, 800_000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := m.CPI(in)
		if math.Abs(got-want[p.Name]) > 0.15 {
			t.Errorf("%s CPIon-chip = %.3f, want ~%.2f", p.Name, got, want[p.Name])
		}
	}
}

func TestMeasureCollectsComponents(t *testing.T) {
	const warm, n = 100_000, 200_000
	for _, p := range []workload.Params{workload.SPECweb(2), workload.Database(2)} {
		in, err := Measure(p, warm, n)
		if err != nil {
			t.Fatal(err)
		}
		if in.Insts != n {
			t.Errorf("%s: Insts = %d", p.Name, in.Insts)
		}
		if in.L1DLoadMiss == 0 || in.L1IMiss == 0 || in.Mispredicts == 0 {
			t.Errorf("%s: components missing: %+v", p.Name, in)
		}
		if in.BaseCPI != p.OnChipBaseCPI {
			t.Errorf("%s: BaseCPI = %v", p.Name, in.BaseCPI)
		}

		// The Table 1 counts describe the same measured stream.
		g := workload.NewGenerator(p)
		trace.Gather(trace.Limit(g, warm))
		st := trace.Gather(trace.Limit(g, n))
		if in.Stores != st.Stores() {
			t.Errorf("%s: Stores = %d, stream has %d", p.Name, in.Stores, st.Stores())
		}
		if in.StoreOffChip > in.Stores || in.LoadOffChip > st.Loads() || in.FetchOffChip > in.Insts {
			t.Errorf("%s: off-chip count exceeds its accesses: %+v (loads %d)", p.Name, in, st.Loads())
		}
		if p.Name == "database" && (in.StoreOffChip == 0 || in.LoadOffChip == 0 || in.FetchOffChip == 0) {
			t.Errorf("%s: off-chip counts missing: %+v", p.Name, in)
		}
	}
}
