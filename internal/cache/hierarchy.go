package cache

// Hierarchy ties together the per-core L1 caches, the shared L2, and the
// TLB of the paper's default configuration, and classifies every access
// as on-chip or off-chip. "Off-chip" means the access requires a
// long-latency transaction beyond the L2: a data fetch from memory, or a
// cross-chip ownership upgrade for a store to a Shared line.
//
// Every level is reached through one primitive, Cache.access: it scans
// the set for the line, fills the victim on a miss and hands back the
// way, whose state the caller then changes in place. Two fast
// paths skip the scan: an instruction fetch from the line fetched last
// and a data access to the page the TLB served last. Commercial
// instruction streams touch the same L1I line about 16 times in a row,
// and a repeated line or page is already resident and most recently used
// in its set, so the skipped scan would change nothing but the LRU clock.
// DESIGN.md §5.1 records the measurements behind this design.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	TLB *Cache // tracks pages; misses are counted but are not epoch events

	fetchShift uint //storemlp:keep copy of L1I.lineShift, keeps Fetch's fast path inlinable

	// The fast paths' last line and page; noLast when there is none.
	lastFetchLine uint64 // line tag last fetched, resident in L1I
	lastPage      uint64 // page tag last touched, resident in TLB

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
func NewHierarchy(cfg Config) *Hierarchy { return NewSharedHierarchy(cfg, New(cfg.L2)) }

// NewSharedHierarchy builds a core's view of the hierarchy: private L1s
// and TLB over the given L2. The paper's CMP configuration has two
// single-threaded cores per shared L2, so a second core's view shares
// the first's.
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
	}
	h.fetchShift = h.L1I.lineShift
	h.lastFetchLine, h.lastPage = noLast, noLast
	return h
}

// Reset empties every level and zeroes the statistics, returning the
// hierarchy to its as-constructed state without reallocating. The
// OnL2Evict hook is detached; re-hook it after resetting.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.TLB.Reset()
	h.lastFetchLine, h.lastPage = noLast, noLast
	h.OnL2Evict = nil
	h.Stats = HierarchyStats{}
}

// Result describes one access's interaction with the hierarchy.
type Result struct {
	L1Hit   bool
	OffChip bool // required an off-chip transaction
}

// accessL2 is Cache.access on the L2, reporting the victim of a fill to
// OnL2Evict.
func (h *Hierarchy) accessL2(addr uint64, touch bool, fill MESI) (*way, MESI) {
	w, st, ev := h.L2.access(addr, touch, fill)
	if ev&3 != 0 && h.OnL2Evict != nil {
		h.OnL2Evict(ev>>2<<h.L2.lineShift, MESI(ev&3))
	}
	return w, st
}

// touchTLB stays small enough to inline into Load and Store so the
// same-page repeat costs a shift and a compare, no call.
//
//storemlp:noalloc
//storemlp:inline
func (h *Hierarchy) touchTLB(addr uint64) {
	if addr>>h.TLB.lineShift == h.lastPage {
		return
	}
	h.touchTLBSlow(addr)
}

func (h *Hierarchy) touchTLBSlow(addr uint64) {
	if _, st, _ := h.TLB.access(addr, true, Exclusive); st == Invalid {
		h.Stats.TLBMisses++
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
		return Result{L1Hit: true}
	}
	return h.fetchSlow(pc)
}

func (h *Hierarchy) fetchSlow(pc uint64) Result {
	h.lastFetchLine = pc >> h.fetchShift
	if _, st, _ := h.L1I.access(pc, true, Shared); st != Invalid {
		return Result{L1Hit: true}
	}
	if _, st := h.accessL2(pc, true, Shared); st != Invalid {
		return Result{}
	}
	h.Stats.FetchOffChip++
	return Result{OffChip: true}
}

// Load performs a data load. shared marks data reachable by other chips,
// which fills in the Shared state (so later stores need upgrades).
func (h *Hierarchy) Load(addr uint64, shared bool) Result {
	h.Stats.Loads++
	h.touchTLB(addr)
	if _, st, _ := h.L1D.access(addr, true, Shared); st != Invalid {
		return Result{L1Hit: true}
	}
	fill := Exclusive
	if shared {
		fill = Shared
	}
	if _, st := h.accessL2(addr, true, fill); st != Invalid {
		return Result{}
	}
	h.Stats.LoadOffChip++
	return Result{OffChip: true}
}

// Store performs a data store. The L1D is write-through and
// no-write-allocate, so the store's fate is decided entirely at the L2:
// a hit in M or E commits on-chip; a hit in S needs a cross-chip
// ownership upgrade; a miss needs a full off-chip fill with ownership.
// Ownership is acquired whatever shared says; sharing returns through
// snoops.
func (h *Hierarchy) Store(addr uint64, shared bool) Result {
	h.Stats.Stores++
	h.Stats.L2StoreTraffic++
	h.touchTLB(addr)
	_, l1, _ := h.L1D.access(addr, true, Invalid) // write-through: update if present
	w, st := h.accessL2(addr, true, Modified)
	w.set(Modified)
	if st.Owned() {
		return Result{L1Hit: l1 != Invalid}
	}
	h.Stats.StoreOffChip++
	if st == Shared {
		h.Stats.StoreUpgrades++
	}
	return Result{L1Hit: l1 != Invalid, OffChip: true}
}

// PrefetchStore issues a "prefetch for write": the line containing addr
// is acquired in Modified state, counting L2 prefetch traffic. A
// resident line keeps its LRU position. Used by store prefetching (at
// retire or at execute) and by scout-mode store prefetches.
func (h *Hierarchy) PrefetchStore(addr uint64) {
	h.Stats.L2PrefetchReqs++
	w, _ := h.accessL2(addr, false, Modified)
	w.set(Modified)
}

// SnoopInvalidate applies a remote chip's request-to-own: the local line
// is invalidated. It reports the state the line held.
func (h *Hierarchy) SnoopInvalidate(addr uint64) MESI {
	h.lastFetchLine = noLast // the line may leave the L1I
	h.L1D.invalidate(addr)
	h.L1I.invalidate(addr)
	return h.L2.invalidate(addr)
}

// SnoopShared applies a remote chip's read request: an owned local line
// is demoted to Shared (so the next local store needs an upgrade).
func (h *Hierarchy) SnoopShared(addr uint64) MESI {
	w, st, _ := h.L2.access(addr, false, Invalid)
	if st.Owned() {
		w.set(Shared)
	}
	return st
}
