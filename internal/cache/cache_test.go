package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B
	return New(Params{SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestParamsValidate(t *testing.T) {
	good := Params{SizeBytes: 2 << 20, Ways: 4, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("default L2 params invalid: %v", err)
	}
	if got := good.Sets(); got != 8192 {
		t.Errorf("Sets = %d, want 8192", got)
	}
	bad := []Params{
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 1024, Ways: 4, LineBytes: 63},
		{SizeBytes: 1024, Ways: 3, LineBytes: 64}, // sets not power of two
		{SizeBytes: 64, Ways: 4, LineBytes: 64},   // zero sets
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid params")
		}
	}()
	New(Params{SizeBytes: 100, Ways: 3, LineBytes: 7})
}

// occupancy returns the number of valid lines in c.
func occupancy(c *Cache) int {
	n := 0
	for _, w := range c.ways {
		if w.ent&3 != 0 {
			n++
		}
	}
	return n
}

// fill is a lookup that fills addr's line in state st on a miss; it
// returns the evicted line's address and state (Invalid if the victim
// way was empty).
func fill(c *Cache, addr uint64, st MESI) (uint64, MESI) {
	_, _, ev := c.access(addr, true, st)
	return ev >> 2 << c.lineShift, MESI(ev & 3)
}

func TestLookupInsert(t *testing.T) {
	c := small()
	if w, st, _ := c.access(0x1000, true, Invalid); w != nil || st != Invalid {
		t.Fatalf("empty cache lookup = %v, %v; want a miss without a way", w, st)
	}
	if w, st, _ := c.access(0x1000, true, Exclusive); w == nil || st != Invalid {
		t.Fatalf("filling lookup = %v, %v; want the filled way and Invalid", w, st)
	}
	if got := c.Probe(0x1000); got != Exclusive {
		t.Fatalf("after fill, Probe = %v", got)
	}
	// Same line, different offset.
	if _, got, _ := c.access(0x103f, true, Invalid); got != Exclusive {
		t.Fatalf("same-line offset lookup = %v", got)
	}
	// Next line misses and, without a fill state, stays absent.
	if _, got, _ := c.access(0x1040, true, Invalid); got != Invalid {
		t.Fatalf("next line lookup = %v", got)
	}
	if got := c.Probe(0x1040); got != Invalid || occupancy(c) != 1 {
		t.Errorf("lookup without fill left state %v, occupancy %d", got, occupancy(c))
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way: three lines mapping to one set evict the LRU
	// Set index = (addr>>6) & 3. Addresses 0x0000, 0x0100, 0x0200 all map
	// to set 0 (line numbers 0, 4, 8).
	fill(c, 0x0000, Exclusive)
	fill(c, 0x0100, Exclusive)
	c.access(0x0000, true, Invalid)  // make 0x0000 MRU
	c.access(0x0100, false, Invalid) // an untouched lookup leaves the order alone
	ev, st := fill(c, 0x0200, Modified)
	if ev != 0x0100 || st != Exclusive {
		t.Fatalf("evicted %#x/%v, want 0x100/E", ev, st)
	}
	if c.Probe(0x0000) == Invalid {
		t.Error("MRU line was evicted")
	}
	if c.Probe(0x0200) != Modified {
		t.Error("filled line missing")
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := small()
	fill(c, 0x40, Shared)
	w, st, ev := c.access(0x40, true, Modified)
	if st != Shared || ev != 0 {
		t.Fatalf("lookup of resident line = %v (evicted %#x), want a Shared hit", st, ev)
	}
	w.set(Modified)
	if got := c.Probe(0x40); got != Modified {
		t.Errorf("state after in-place change = %v", got)
	}
	if occupancy(c) != 1 {
		t.Errorf("occupancy = %d", occupancy(c))
	}
}

func TestSetStateInvalidate(t *testing.T) {
	c := small()
	fill(c, 0x0000, Exclusive)
	fill(c, 0x0100, Exclusive)
	w, _, _ := c.access(0x0000, false, Invalid)
	w.set(Modified)
	if got := c.invalidate(0x0000); got != Modified {
		t.Errorf("invalidate returned %v", got)
	}
	if got := c.invalidate(0x0000); got != Invalid {
		t.Errorf("double invalidate returned %v", got)
	}
	// The emptied way is the next victim, ahead of the LRU line.
	if _, st := fill(c, 0x0200, Exclusive); st != Invalid {
		t.Errorf("fill into a set with an empty way evicted a %v line", st)
	}
	if c.Probe(0x0100) != Exclusive || occupancy(c) != 2 {
		t.Errorf("0x100 = %v, occupancy %d; want E, 2", c.Probe(0x0100), occupancy(c))
	}
}

func TestMESIHelpers(t *testing.T) {
	if !Exclusive.Owned() || !Modified.Owned() {
		t.Error("E and M are owned")
	}
	if Shared.Owned() || Invalid.Owned() {
		t.Error("S and I are not owned")
	}
	names := map[MESI]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", MESI(9): "?"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// Property: occupancy never exceeds capacity and a just-filled line is
// always resident.
func TestCacheOccupancyProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := small()
		for _, a := range addrs {
			addr := uint64(a)
			fill(c, addr, Exclusive)
			if c.Probe(addr) == Invalid {
				return false
			}
			if occupancy(c) > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after filling k <= ways distinct lines into one set, all
// remain resident (LRU never evicts from a non-full set).
func TestNoEvictionBelowCapacity(t *testing.T) {
	c := small()
	if _, st := fill(c, 0x0000, Exclusive); st != Invalid {
		t.Error("first fill must not evict")
	}
	if _, st := fill(c, 0x0100, Exclusive); st != Invalid {
		t.Error("second fill into 2-way set must not evict")
	}
	if c.Probe(0x0000) != Exclusive || c.Probe(0x0100) != Exclusive {
		t.Error("both lines must stay resident")
	}
}

func TestHierarchyFetch(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	r := h.Fetch(0x400000)
	if !r.OffChip || r.L1Hit {
		t.Errorf("cold fetch = %+v", r)
	}
	if h.L1I.Probe(0x400000) != Shared || h.L2.Probe(0x400000) != Shared {
		t.Error("cold fetch should fill S in the L1I and the L2")
	}
	r = h.Fetch(0x400000)
	if !r.L1Hit {
		t.Errorf("warm fetch = %+v", r)
	}
	if h.Stats.Fetches != 2 || h.Stats.FetchOffChip != 1 {
		t.Errorf("stats = %+v", h.Stats)
	}
}

func TestHierarchyLoad(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	r := h.Load(0x8000000, false)
	if !r.OffChip {
		t.Errorf("cold load = %+v", r)
	}
	if h.L2.Probe(0x8000000) != Exclusive {
		t.Error("private load should fill E")
	}
	r = h.Load(0x8000000, false)
	if !r.L1Hit {
		t.Errorf("warm load = %+v", r)
	}
	// Shared data fills S.
	h.Load(0x9000000, true)
	if h.L2.Probe(0x9000000) != Shared {
		t.Error("shared load should fill S")
	}
}

func TestHierarchyStoreStates(t *testing.T) {
	h := NewHierarchy(DefaultConfig())

	// Cold store: off-chip, installs M.
	r := h.Store(0xA000000, false)
	if !r.OffChip || h.Stats.StoreUpgrades != 0 {
		t.Errorf("cold store = %+v, %d upgrades", r, h.Stats.StoreUpgrades)
	}
	if h.L2.Probe(0xA000000) != Modified {
		t.Error("store miss should install M")
	}

	// Store to M: on-chip.
	r = h.Store(0xA000000, false)
	if r.OffChip {
		t.Errorf("store to M = %+v", r)
	}

	// Store to E: on-chip, upgrades silently to M.
	h.Load(0xB000000, false) // fills E
	r = h.Store(0xB000000, false)
	if r.OffChip {
		t.Errorf("store to E = %+v", r)
	}
	if h.L2.Probe(0xB000000) != Modified {
		t.Error("store to E should become M")
	}

	// Store to S: ownership upgrade = off-chip.
	h.Load(0xC000000, true) // fills S
	r = h.Store(0xC000000, true)
	if !r.OffChip {
		t.Errorf("store to S = %+v", r)
	}
	if h.Stats.StoreUpgrades != 1 || h.Stats.StoreOffChip != 2 {
		t.Errorf("StoreUpgrades = %d, StoreOffChip = %d; want 1, 2", h.Stats.StoreUpgrades, h.Stats.StoreOffChip)
	}
	if h.L2.Probe(0xC000000) != Modified {
		t.Error("store to S should become M")
	}
}

func TestWriteThroughNoWriteAllocate(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Store(0xD000000, false)
	// no-write-allocate: the L1D must NOT contain the line.
	if h.L1D.Probe(0xD000000) != Invalid {
		t.Error("store must not allocate in L1D")
	}
	// A load allocates it; a subsequent store hits L1 (write-through).
	h.Load(0xD000000, false)
	r := h.Store(0xD000000, false)
	if !r.L1Hit {
		t.Error("store after load should hit L1D (write-through)")
	}
}

func TestPrefetchStore(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.PrefetchStore(0xE000000)
	if h.L2.Probe(0xE000000) != Modified {
		t.Error("prefetch-for-write should install M")
	}
	// The subsequent demand store is now on-chip.
	if r := h.Store(0xE000000, false); r.OffChip {
		t.Errorf("store after prefetch = %+v", r)
	}
	// Prefetching an S line upgrades it.
	h.Load(0xF000000, true)
	h.PrefetchStore(0xF000000)
	if h.L2.Probe(0xF000000) != Modified {
		t.Error("prefetch should upgrade S to M")
	}
	if h.Stats.L2PrefetchReqs != 2 {
		t.Errorf("L2PrefetchReqs = %d", h.Stats.L2PrefetchReqs)
	}
}

func TestSnoops(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Store(0x1000000, false) // M in L2
	if prev := h.SnoopShared(0x1000000); prev != Modified {
		t.Errorf("SnoopShared prev = %v", prev)
	}
	if h.L2.Probe(0x1000000) != Shared {
		t.Error("SnoopShared should demote to S")
	}
	if prev := h.SnoopInvalidate(0x1000000); prev != Shared {
		t.Errorf("SnoopInvalidate prev = %v", prev)
	}
	if h.L2.Probe(0x1000000) != Invalid {
		t.Error("SnoopInvalidate should remove the line")
	}
	if prev := h.SnoopInvalidate(0x7777000); prev != Invalid {
		t.Errorf("snoop on absent line = %v", prev)
	}
}

func TestL2EvictCallback(t *testing.T) {
	// Tiny hierarchy to force evictions quickly.
	cfg := Config{
		L1I:        Params{SizeBytes: 256, Ways: 2, LineBytes: 64},
		L1D:        Params{SizeBytes: 256, Ways: 2, LineBytes: 64},
		L2:         Params{SizeBytes: 512, Ways: 2, LineBytes: 64},
		TLBEntries: 16,
		PageBytes:  4096,
	}
	h := NewHierarchy(cfg)
	var evicted []uint64
	var states []MESI
	h.OnL2Evict = func(addr uint64, st MESI) {
		evicted = append(evicted, addr)
		states = append(states, st)
	}
	// L2 has 4 sets; fill set 0 (stride 256) with 3 modified lines.
	h.Store(0x0000, false)
	h.Store(0x0100, false)
	h.Store(0x0200, false)
	if len(evicted) != 1 || evicted[0] != 0x0000 || states[0] != Modified {
		t.Errorf("evictions = %#v states = %v", evicted, states)
	}
}

func TestTLBCountsMisses(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Load(0x10000000, false)
	h.Load(0x10000040, false) // same page
	if h.Stats.TLBMisses != 1 {
		t.Errorf("TLBMisses = %d, want 1", h.Stats.TLBMisses)
	}
	h.Load(0x20000000, false) // new page
	if h.Stats.TLBMisses != 2 {
		t.Errorf("TLBMisses = %d, want 2", h.Stats.TLBMisses)
	}
}
