package uarch

import (
	"strings"
	"testing"

	"storemlp/internal/consistency"
)

func TestDefaultValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.ROB != 64 || c.StoreBuffer != 16 || c.StoreQueue != 32 ||
		c.IssueWindow != 32 || c.FetchBuffer != 32 || c.LoadBuffer != 64 {
		t.Errorf("default sizes wrong: %+v", c)
	}
	if c.StorePrefetch != Sp1 {
		t.Error("default prefetch should be at-retire (Sp1)")
	}
	if c.CoalesceBytes != 8 {
		t.Error("default coalescing should be 8 bytes")
	}
	if c.Model != consistency.PC {
		t.Error("default model should be PC")
	}
	if c.MissPenalty != 500 {
		t.Error("default miss penalty should be 500")
	}
}

func TestValidateErrors(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.ROB = 0 },
		func(c *Config) { c.FetchBuffer = -1 },
		func(c *Config) { c.StorePrefetch = PrefetchMode(9) },
		func(c *Config) { c.HWS = HWSMode(9) },
		func(c *Config) { c.Model = consistency.Model(9) },
		func(c *Config) { c.CoalesceBytes = 7 },
		func(c *Config) { c.CoalesceBytes = -8 },
		func(c *Config) { c.MissPenalty = 0 },
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.SMACEntries = -1 },
		func(c *Config) { c.Hierarchy.L2.Ways = 0 },
		func(c *Config) { c.SLE = true; c.TM = true },
	}
	for i, m := range mut {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestValidateRejectsNegativeKnobs(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative scout reach", func(c *Config) { c.ScoutReach = -1 }, "scout reach"},
		{"negative on-chip CPI", func(c *Config) { c.CPIOnChip = -0.5 }, "on-chip CPI"},
		{"negative warmup", func(c *Config) { c.WarmInsts = -1 }, "warmup"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Default()
			tt.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestValidateAcceptsUnconstrainedKnobs(t *testing.T) {
	// Fields marked storemlpvet:novalidate: their whole domain is valid.
	muts := []func(*Config){
		func(c *Config) { c.StoreQueue = 0 },  // unbounded store queue
		func(c *Config) { c.StoreQueue = -1 }, // also unbounded
		func(c *Config) { c.PrefetchPastSerializing = true },
		func(c *Config) { c.PerfectStores = true },
	}
	for i, m := range muts {
		c := Default()
		m(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("mutation %d should be valid: %v", i, err)
		}
	}
}

func TestPrefetchModeStrings(t *testing.T) {
	if Sp0.String() != "Sp0" || Sp1.String() != "Sp1" || Sp2.String() != "Sp2" {
		t.Error("prefetch mode names wrong")
	}
	if !strings.HasPrefix(PrefetchMode(9).String(), "Sp(") {
		t.Error("unknown mode string wrong")
	}
	if !Sp2.Valid() || PrefetchMode(3).Valid() {
		t.Error("validity wrong")
	}
}

func TestHWSModes(t *testing.T) {
	if NoHWS.String() != "NoHWS" || HWS0.String() != "HWS0" ||
		HWS1.String() != "HWS1" || HWS2.String() != "HWS2" {
		t.Error("HWS names wrong")
	}
	if !strings.HasPrefix(HWSMode(9).String(), "HWS(") {
		t.Error("unknown HWS string wrong")
	}
	if HWS0.PrefetchesStores() || !HWS1.PrefetchesStores() || !HWS2.PrefetchesStores() {
		t.Error("PrefetchesStores wrong")
	}
	if HWS1.TriggersOnStoreStall() || !HWS2.TriggersOnStoreStall() {
		t.Error("TriggersOnStoreStall wrong")
	}
}

func TestParseModes(t *testing.T) {
	for n, want := range []PrefetchMode{Sp0, Sp1, Sp2} {
		if got, err := ParsePrefetchMode(n); got != want || err != nil {
			t.Errorf("ParsePrefetchMode(%d) = %v, %v; want %v", n, got, err, want)
		}
	}
	for n, want := range []HWSMode{NoHWS, HWS0, HWS1, HWS2} {
		if got, err := ParseHWSMode(n - 1); got != want || err != nil {
			t.Errorf("ParseHWSMode(%d) = %v, %v; want %v", n-1, got, err, want)
		}
	}
	for _, n := range []int{-1, 3} {
		if _, err := ParsePrefetchMode(n); err == nil {
			t.Errorf("ParsePrefetchMode(%d) accepted", n)
		}
	}
	for _, n := range []int{-2, 3} {
		if _, err := ParseHWSMode(n); err == nil {
			t.Errorf("ParseHWSMode(%d) accepted", n)
		}
	}
}

func TestEffectiveScoutReach(t *testing.T) {
	c := Default() // 500 / 1.1 = 454
	if got := c.EffectiveScoutReach(); got != 454 {
		t.Errorf("EffectiveScoutReach = %d, want 454", got)
	}
	c.ScoutReach = 100
	if got := c.EffectiveScoutReach(); got != 100 {
		t.Errorf("explicit reach = %d", got)
	}
	c.ScoutReach = 0
	c.CPIOnChip = 0 // degenerate: falls back to CPI 1
	if got := c.EffectiveScoutReach(); got != 500 {
		t.Errorf("degenerate reach = %d", got)
	}
}

func TestOverlapWindow(t *testing.T) {
	c := Default()
	if got := c.OverlapWindow(); got != 454 {
		t.Errorf("OverlapWindow = %d, want 454", got)
	}
}

func TestName(t *testing.T) {
	c := Default()
	if got := c.Name(); got != "PC Sp1 Sb16 Sq32" {
		t.Errorf("Name = %q", got)
	}
	c.Model = consistency.WC
	c.SLE = true
	c.PrefetchPastSerializing = true
	c.HWS = HWS2
	c.SMACEntries = 32 << 10
	c.PerfectStores = true
	c.StoreQueue = 0
	got := c.Name()
	for _, part := range []string{"WC", "SqInf", "SLE", "PPS", "HWS2", "SMAC32K", "perfect-stores"} {
		if !strings.Contains(got, part) {
			t.Errorf("Name %q missing %q", got, part)
		}
	}
}
