// Package uarch holds the microarchitecture parameter block of the
// paper's default processor configuration (§4.3) together with every
// store-handling and MLP optimization knob evaluated in §5.
package uarch

import (
	"fmt"

	"storemlp/internal/branch"
	"storemlp/internal/cache"
	"storemlp/internal/consistency"
	"storemlp/internal/smac"
)

// PrefetchMode selects the hardware store prefetching scheme (§3.3.2).
type PrefetchMode uint8

const (
	// Sp0 disables store prefetching: missing stores issue their
	// ownership requests serially as they reach the store queue head.
	Sp0 PrefetchMode = iota
	// Sp1 prefetches for write when the store retires (enters the store
	// queue): all missing stores in the store queue overlap.
	Sp1
	// Sp2 prefetches for write when the store's address is generated:
	// missing stores in both the store buffer and store queue overlap.
	Sp2
)

func (m PrefetchMode) String() string {
	switch m {
	case Sp0:
		return "Sp0"
	case Sp1:
		return "Sp1"
	case Sp2:
		return "Sp2"
	}
	return fmt.Sprintf("Sp(%d)", uint8(m))
}

// Valid reports whether m is a defined mode.
func (m PrefetchMode) Valid() bool { return m <= Sp2 }

// ParsePrefetchMode maps a mode number (0, 1 or 2, as in Sp0..Sp2) to
// its PrefetchMode.
func ParsePrefetchMode(n int) (PrefetchMode, error) {
	if n < 0 || n > int(Sp2) {
		return Sp0, fmt.Errorf("unknown store prefetch mode %d (want 0..2)", n)
	}
	return PrefetchMode(n), nil
}

// HWSMode selects the Hardware Scouting configuration (§5.4).
type HWSMode uint8

const (
	// NoHWS disables hardware scouting.
	NoHWS HWSMode = iota
	// HWS0 invokes scout on a missing load; scout prefetches only
	// missing loads and missing instructions.
	HWS0
	// HWS1 is HWS0 plus store prefetches while in scout mode.
	HWS1
	// HWS2 is HWS1 plus invoking scout when the store queue is full and
	// rename/dispatch is stalled — the paper's proposed optimization.
	HWS2
)

func (m HWSMode) String() string {
	switch m {
	case NoHWS:
		return "NoHWS"
	case HWS0:
		return "HWS0"
	case HWS1:
		return "HWS1"
	case HWS2:
		return "HWS2"
	}
	return fmt.Sprintf("HWS(%d)", uint8(m))
}

// Valid reports whether m is a defined mode.
func (m HWSMode) Valid() bool { return m <= HWS2 }

// ParseHWSMode maps a scout mode number (0, 1 or 2, as in HWS0..HWS2;
// -1 for off) to its HWSMode.
func ParseHWSMode(n int) (HWSMode, error) {
	if n < -1 || n > int(HWS2-HWS0) {
		return NoHWS, fmt.Errorf("unknown hws mode %d (want -1..2)", n)
	}
	return HWSMode(n + 1), nil
}

// PrefetchesStores reports whether scout mode issues prefetches for
// missing stores.
func (m HWSMode) PrefetchesStores() bool { return m == HWS1 || m == HWS2 }

// TriggersOnStoreStall reports whether scout is also invoked on
// store-queue-full dispatch stalls.
func (m HWSMode) TriggersOnStoreStall() bool { return m == HWS2 }

// Config is the full simulated machine description.
type Config struct {
	// Pipeline structure sizes (§4.3 defaults in parentheses).
	FetchBuffer int // fetched-but-not-dispatched instructions (32)
	IssueWindow int // dispatched-but-not-issued instructions (32)
	ROB         int // dispatched-but-not-retired instructions (64)
	StoreBuffer int // stores dispatched-but-not-retired (16)
	StoreQueue  int // stores retired-but-not-committed (32); <=0 = unbounded // storemlpvet:novalidate
	LoadBuffer  int // loads dispatched-but-not-retired (64)

	// Store handling.
	StorePrefetch PrefetchMode // default Sp1 (prefetch at retire)
	CoalesceBytes int          // store coalescing granularity; 0 disables (8)

	// Memory consistency model and its optimizations (§3.3.4).
	Model                   consistency.Model
	SLE                     bool // speculative lock elision (always succeeds)
	TM                      bool // transactional memory (SLE alternative; always commits)
	PrefetchPastSerializing bool // storemlpvet:novalidate (both states valid)

	// Hardware Scouting (§3.3.5).
	HWS        HWSMode
	ScoutReach int // instructions scout can cover; 0 = MissPenalty/CPIOnChip

	// Store Miss Accelerator (§3.3.3). 0 entries = no SMAC. The geometry
	// knobs default to the paper's design point (8-way, 2048 B
	// super-lines, 64 B sub-blocks) when zero.
	SMACEntries        int
	SMACWays           int
	SMACSuperLineBytes int
	SMACSubBlockBytes  int

	// Latencies (cycles).
	MissPenalty int     // off-chip access latency (500)
	L1Latency   int     // 4
	L2Latency   int     // 15
	CPIOnChip   float64 // used to convert the miss penalty to instructions

	// ModelBranchPredictor replaces the workload generator's calibrated
	// misprediction flags with a modelled gshare + BTB front end
	// (§4.3: 64K gshare, 16K BTB, 16-entry RAS) driven by the generated
	// branch outcomes.
	ModelBranchPredictor bool
	// BranchPredictor sizes the modelled front end; zero fields take the
	// paper's defaults.
	BranchPredictor branch.Config

	// Multiprocessor scale for coherence traffic (2-way in the paper).
	Nodes int

	// PerfectStores makes stores never stall the processor: store misses
	// cost nothing and serializers do not wait for store drains. This is
	// the bottom bar segment in every figure.
	PerfectStores bool // storemlpvet:novalidate (both states valid)

	// Caches.
	Hierarchy cache.Config

	// WarmInsts instructions at the start of the trace update the caches
	// without contributing to epoch statistics (50M in the paper; scaled
	// down with our traces).
	WarmInsts int64
}

// Default returns the paper's §4.3 configuration.
func Default() Config {
	return Config{
		FetchBuffer:   32,
		IssueWindow:   32,
		ROB:           64,
		StoreBuffer:   16,
		StoreQueue:    32,
		LoadBuffer:    64,
		StorePrefetch: Sp1,
		CoalesceBytes: 8,
		Model:         consistency.PC,
		MissPenalty:   500,
		L1Latency:     4,
		L2Latency:     15,
		CPIOnChip:     1.1,
		Nodes:         2,
		Hierarchy:     cache.DefaultConfig(),
	}
}

// SMACParams resolves the SMAC geometry, applying the paper's defaults
// for unset knobs.
func (c Config) SMACParams() smac.Params {
	p := smac.DefaultParams(c.SMACEntries)
	if c.SMACWays > 0 {
		p.Ways = c.SMACWays
	}
	if c.SMACSuperLineBytes > 0 {
		p.SuperLineBytes = c.SMACSuperLineBytes
	}
	if c.SMACSubBlockBytes > 0 {
		p.SubBlockBytes = c.SMACSubBlockBytes
	}
	return p
}

// BranchConfig resolves the branch predictor geometry, applying the
// paper defaults for unset knobs.
func (c Config) BranchConfig() branch.Config {
	b := c.BranchPredictor
	d := branch.DefaultConfig()
	if b.GshareEntries == 0 {
		b.GshareEntries = d.GshareEntries
	}
	if b.BTBEntries == 0 {
		b.BTBEntries = d.BTBEntries
	}
	if b.RASEntries == 0 {
		b.RASEntries = d.RASEntries
	}
	return b
}

// EffectiveScoutReach resolves ScoutReach, defaulting to the number of
// instructions the core can execute during one miss penalty.
func (c Config) EffectiveScoutReach() int {
	if c.ScoutReach > 0 {
		return c.ScoutReach
	}
	cpi := c.CPIOnChip
	if cpi <= 0 {
		cpi = 1
	}
	return int(float64(c.MissPenalty) / cpi)
}

// OverlapWindow is the number of on-chip instructions that fully hide
// one off-chip miss (used for the Table 2 "fully overlapped with
// computation" accounting).
func (c Config) OverlapWindow() int64 {
	cpi := c.CPIOnChip
	if cpi <= 0 {
		cpi = 1
	}
	return int64(float64(c.MissPenalty) / cpi)
}

// Validate checks the configuration for contradictions.
func (c Config) Validate() error {
	if c.FetchBuffer <= 0 || c.IssueWindow <= 0 || c.ROB <= 0 ||
		c.StoreBuffer <= 0 || c.LoadBuffer <= 0 {
		return fmt.Errorf("uarch: non-positive structure size (%+v)", c)
	}
	if !c.StorePrefetch.Valid() {
		return fmt.Errorf("uarch: invalid store prefetch mode %d", c.StorePrefetch)
	}
	if !c.HWS.Valid() {
		return fmt.Errorf("uarch: invalid HWS mode %d", c.HWS)
	}
	if err := consistency.Validate(c.Model); err != nil {
		return err
	}
	if c.SLE && c.TM {
		return fmt.Errorf("uarch: SLE and TM are alternative lock optimizations; enable only one")
	}
	if c.CoalesceBytes < 0 || (c.CoalesceBytes != 0 && c.CoalesceBytes&(c.CoalesceBytes-1) != 0) {
		return fmt.Errorf("uarch: coalescing granularity %d not a power of two", c.CoalesceBytes)
	}
	if c.MissPenalty <= 0 {
		return fmt.Errorf("uarch: non-positive miss penalty %d", c.MissPenalty)
	}
	if c.ScoutReach < 0 {
		return fmt.Errorf("uarch: negative scout reach %d", c.ScoutReach)
	}
	if c.L1Latency < 0 || c.L2Latency < 0 {
		return fmt.Errorf("uarch: negative cache latency (L1 %d, L2 %d)", c.L1Latency, c.L2Latency)
	}
	if c.CPIOnChip < 0 {
		return fmt.Errorf("uarch: negative on-chip CPI %v", c.CPIOnChip)
	}
	if c.WarmInsts < 0 {
		return fmt.Errorf("uarch: negative warmup instruction count %d", c.WarmInsts)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("uarch: node count %d < 1", c.Nodes)
	}
	if c.SMACEntries < 0 {
		return fmt.Errorf("uarch: negative SMAC entries %d", c.SMACEntries)
	}
	if c.SMACEntries > 0 {
		if err := c.SMACParams().Validate(); err != nil {
			return err
		}
	}
	if c.ModelBranchPredictor {
		if err := c.BranchConfig().Validate(); err != nil {
			return err
		}
	}
	if err := c.Hierarchy.L1I.Validate(); err != nil {
		return err
	}
	if err := c.Hierarchy.L1D.Validate(); err != nil {
		return err
	}
	if err := c.Hierarchy.L2.Validate(); err != nil {
		return err
	}
	return nil
}

// Name summarizes the configuration the way the paper labels bars, e.g.
// "PC Sp1 Sb16 Sq32".
func (c Config) Name() string {
	sq := fmt.Sprintf("Sq%d", c.StoreQueue)
	if c.StoreQueue <= 0 {
		sq = "SqInf"
	}
	s := fmt.Sprintf("%s %s Sb%d %s", c.Model, c.StorePrefetch, c.StoreBuffer, sq)
	if c.SLE {
		s += " SLE"
	}
	if c.TM {
		s += " TM"
	}
	if c.PrefetchPastSerializing {
		s += " PPS"
	}
	if c.HWS != NoHWS {
		s += " " + c.HWS.String()
	}
	if c.SMACEntries > 0 {
		s += fmt.Sprintf(" SMAC%dK", c.SMACEntries/1024)
	}
	if c.PerfectStores {
		s += " perfect-stores"
	}
	return s
}
