package cache

// Hierarchy ties together the per-core L1 caches, the shared L2, and the
// TLB of the paper's default configuration, and classifies every access
// as on-chip or off-chip. "Off-chip" means the access requires a
// long-latency transaction beyond the L2: a data fetch from memory, or a
// cross-chip ownership upgrade for a store to a Shared line.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	TLB *Cache // tracks pages; misses are counted but are not epoch events

	pageBytes  int  //storemlp:keep (geometry, fixed at construction)
	fetchShift uint //storemlp:keep copy of L1I.lineShift, keeps Fetch's fast path inlinable

	// Consecutive-duplicate fast paths. Commercial instruction streams
	// touch the same L1I line ~16 times in a row and burst stores walk a
	// line in sub-line steps, so the hierarchy remembers the last line
	// (or page) each structure served and skips the full lookup when the
	// next access repeats it. Collapsing consecutive duplicate touches
	// preserves every observable: the line stays most-recently-used in
	// its set either way, so victim selection, hit/miss outcomes and all
	// HierarchyStats counters are identical — only the redundant LRU
	// bump and the structure's internal access count are elided.
	// Sentinel ^0 means "no valid last access".
	lastFetchLine uint64 // line tag last fetched, resident in L1I
	lastPage      uint64 // page tag last touched, resident in TLB
	lastStoreLine uint64 // line tag last stored, Modified in L2, no
	// intervening L1D or L2 access (loads touch the L1D; L1I-missing
	// fetches, prefetches and snoops touch the L2)
	lastStoreL1 bool // L1D presence of lastStoreLine at that store
	l2Shared    bool // another hierarchy shares the L2: no store fast path

	// OnL2Evict, if non-nil, is called for every valid line evicted from
	// the L2 with its address and pre-eviction state. The Store Miss
	// Accelerator hooks this to capture downgraded Modified lines.
	OnL2Evict func(addr uint64, state MESI)

	// Stats accumulates the per-access-kind counters behind Table 1 and
	// the L2 bandwidth accounting.
	Stats HierarchyStats
}

// HierarchyStats counts accesses and off-chip misses per access kind,
// plus L2 traffic (used to quantify the store-prefetch bandwidth cost
// that motivates the SMAC).
type HierarchyStats struct {
	Fetches        int64
	FetchOffChip   int64
	Loads          int64
	LoadOffChip    int64
	Stores         int64
	StoreOffChip   int64
	StoreUpgrades  int64 // subset of StoreOffChip: S->M ownership upgrades
	TLBMisses      int64
	L2StoreTraffic int64 // store commit requests reaching the L2
	L2PrefetchReqs int64 // additional prefetch-for-write / scout requests
}

// Config sizes a hierarchy.
type Config struct {
	L1I, L1D, L2 Params
	TLBEntries   int
	PageBytes    int
}

// DefaultConfig is the paper's §4.3 hierarchy: 32 KB 4-way L1s, 2 MB
// 4-way shared L2, 64 B lines, 2K-entry TLB with 8 KB pages.
func DefaultConfig() Config {
	return Config{
		L1I:        Params{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64},
		L1D:        Params{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64},
		L2:         Params{SizeBytes: 2 << 20, Ways: 4, LineBytes: 64},
		TLBEntries: 2048,
		PageBytes:  8 << 10,
	}
}

const noLast = ^uint64(0)

// NewHierarchy builds the cache hierarchy.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		L1I: New(cfg.L1I),
		L1D: New(cfg.L1D),
		L2:  New(cfg.L2),
		TLB: New(Params{
			SizeBytes: cfg.TLBEntries * cfg.PageBytes,
			Ways:      4,
			LineBytes: cfg.PageBytes,
		}),
		pageBytes: cfg.PageBytes,
	}
	h.fetchShift = h.L1I.lineShift
	h.clearFastPaths()
	return h
}

// NewSharedHierarchy builds a second core's view of the hierarchy:
// private L1s and TLB, sharing the given L2 — the paper's CMP
// configuration has two single-threaded cores per shared L2. Both views
// lose the store fast path: either core's L2 accesses would invalidate
// the other's cached store outcome.
func NewSharedHierarchy(cfg Config, l2 *Cache) *Hierarchy {
	h := &Hierarchy{
		L1I: New(cfg.L1I),
		L1D: New(cfg.L1D),
		L2:  l2,
		TLB: New(Params{
			SizeBytes: cfg.TLBEntries * cfg.PageBytes,
			Ways:      4,
			LineBytes: cfg.PageBytes,
		}),
		pageBytes: cfg.PageBytes,
		l2Shared:  true,
	}
	h.fetchShift = h.L1I.lineShift
	h.clearFastPaths()
	return h
}

// Reset empties every level and zeroes the statistics, returning the
// hierarchy to its as-constructed state without reallocating. The store
// fast path is re-enabled and the OnL2Evict hook detached; re-attach any
// shared view (MarkL2Shared) and re-hook OnL2Evict after resetting.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.TLB.Reset()
	h.l2Shared = false
	h.clearFastPaths()
	h.OnL2Evict = nil
	h.Stats = HierarchyStats{}
}

// MarkL2Shared disables the store fast path on a hierarchy whose L2 has
// been attached to a second core's view.
func (h *Hierarchy) MarkL2Shared() {
	h.l2Shared = true
	h.lastStoreLine = noLast
}

func (h *Hierarchy) clearFastPaths() {
	h.lastFetchLine = noLast
	h.lastPage = noLast
	h.lastStoreLine = noLast
	h.lastStoreL1 = false
}

// Result describes one access's interaction with the hierarchy.
type Result struct {
	L1Hit   bool
	L2Hit   bool // valid line found in L2 (any state)
	OffChip bool // required an off-chip transaction
	Upgrade bool // off-chip transaction was an S->M ownership upgrade
}

func (h *Hierarchy) insertL2(addr uint64, state MESI) {
	if ev, st, ok := h.L2.Insert(addr, state); ok && h.OnL2Evict != nil {
		h.OnL2Evict(ev, st)
	}
}

// touchTLB stays small enough to inline into Load and Store so the
// same-page repeat costs a shift and a compare, no call.
//
//storemlp:noalloc
//storemlp:inline
func (h *Hierarchy) touchTLB(addr uint64) {
	if addr>>h.TLB.lineShift == h.lastPage {
		// The previous TLB touch was this page, so it is resident and
		// most-recently-used; skip the redundant lookup.
		return
	}
	h.touchTLBSlow(addr)
}

func (h *Hierarchy) touchTLBSlow(addr uint64) {
	if h.TLB.Lookup(addr) == Invalid {
		h.Stats.TLBMisses++
		h.TLB.Insert(addr, Exclusive)
	}
	h.lastPage = addr >> h.TLB.lineShift
}

// Fetch performs an instruction fetch for the line containing pc. The
// wrapper stays small enough to inline into the engine's step so the
// dominant case — sequential fetch within the line fetched last — costs
// a shift and a compare, no call.
//
//storemlp:noalloc
//storemlp:inline
func (h *Hierarchy) Fetch(pc uint64) Result {
	h.Stats.Fetches++
	if pc>>h.fetchShift == h.lastFetchLine {
		// Resident and most-recently-used in the L1I, nothing below is
		// touched.
		return Result{L1Hit: true, L2Hit: true}
	}
	return h.fetchSlow(pc)
}

func (h *Hierarchy) fetchSlow(pc uint64) Result {
	line := pc >> h.L1I.lineShift
	if h.L1I.Lookup(pc) != Invalid {
		h.lastFetchLine = line
		return Result{L1Hit: true, L2Hit: true}
	}
	h.lastStoreLine = noLast // the fill path touches the L2
	if h.L2.Lookup(pc) != Invalid {
		h.L1I.Insert(pc, Shared)
		h.lastFetchLine = line
		return Result{L2Hit: true}
	}
	h.Stats.FetchOffChip++
	h.insertL2(pc, Shared)
	h.L1I.Insert(pc, Shared)
	h.lastFetchLine = line
	return Result{OffChip: true}
}

// Load performs a data load. shared marks data reachable by other chips,
// which fills in the Shared state (so later stores need upgrades).
func (h *Hierarchy) Load(addr uint64, shared bool) Result {
	h.Stats.Loads++
	h.touchTLB(addr)
	h.lastStoreLine = noLast // loads touch the L1D (and on a miss the L2)
	if h.L1D.Lookup(addr) != Invalid {
		return Result{L1Hit: true, L2Hit: true}
	}
	if h.L2.Lookup(addr) != Invalid {
		h.L1D.Insert(addr, Shared)
		return Result{L2Hit: true}
	}
	h.Stats.LoadOffChip++
	st := Exclusive
	if shared {
		st = Shared
	}
	h.insertL2(addr, st)
	h.L1D.Insert(addr, Shared)
	return Result{OffChip: true}
}

// Store performs a data store. The L1D is write-through and
// no-write-allocate, so the store's fate is decided entirely at the L2:
// a hit in M or E commits on-chip; a hit in S needs a cross-chip
// ownership upgrade; a miss needs a full off-chip fill with ownership.
func (h *Hierarchy) Store(addr uint64, shared bool) Result {
	h.Stats.Stores++
	h.Stats.L2StoreTraffic++
	h.touchTLB(addr)
	line := addr >> h.L2.lineShift
	if line == h.lastStoreLine {
		// Repeat of the previous store's line with no intervening L1D
		// or L2 access: the line is Modified and most-recently-used in
		// the L2, and the L1D's view of it is unchanged.
		return Result{L1Hit: h.lastStoreL1, L2Hit: true}
	}
	l1 := h.L1D.Lookup(addr) != Invalid // write-through: update if present
	res := Result{L1Hit: l1, L2Hit: true}
	switch h.L2.Lookup(addr) {
	case Modified:
	case Exclusive:
		h.L2.SetState(addr, Modified)
	case Shared:
		h.Stats.StoreOffChip++
		h.Stats.StoreUpgrades++
		h.L2.SetState(addr, Modified)
		res.OffChip, res.Upgrade = true, true
	default:
		h.Stats.StoreOffChip++
		h.insertL2(addr, Modified)
		_ = shared // ownership is acquired regardless; sharing returns via snoops
		res.L2Hit, res.OffChip = false, true
	}
	// Every store leaves the line Modified, so a consecutive repeat is a
	// pure L2 hit — unless the L2 is shared, where the co-runner's
	// accesses would invalidate the cached outcome unseen.
	if !h.l2Shared {
		h.lastStoreLine, h.lastStoreL1 = line, l1
	}
	return res
}

// PrefetchStore issues a "prefetch for write": the line containing addr
// is acquired in Modified state, counting L2 prefetch traffic. Used by
// store prefetching (at retire or at execute) and by scout-mode store
// prefetches.
func (h *Hierarchy) PrefetchStore(addr uint64) {
	h.lastStoreLine = noLast
	h.Stats.L2PrefetchReqs++
	if h.L2.Probe(addr).Owned() {
		h.L2.SetState(addr, Modified)
		return
	}
	if h.L2.Probe(addr) == Shared {
		h.L2.SetState(addr, Modified)
		return
	}
	h.insertL2(addr, Modified)
}

// SnoopInvalidate applies a remote chip's request-to-own: the local line
// is invalidated. It reports the state the line held.
func (h *Hierarchy) SnoopInvalidate(addr uint64) MESI {
	h.clearFastPaths() // L1I residency and L2 store state may change
	h.L1D.Invalidate(addr)
	h.L1I.Invalidate(addr)
	return h.L2.Invalidate(addr)
}

// SnoopShared applies a remote chip's read request: an owned local line
// is demoted to Shared (so the next local store needs an upgrade).
func (h *Hierarchy) SnoopShared(addr uint64) MESI {
	h.lastStoreLine = noLast // the demotion may hit the cached store line
	prev := h.L2.Probe(addr)
	if prev.Owned() {
		h.L2.SetState(addr, Shared)
	}
	return prev
}
