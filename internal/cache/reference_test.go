package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// The reference model below restates the hierarchy's contract as
// plainly as possible: every set is a list of its valid lines, most
// recently used first, and the real hierarchy must agree with it on
// every access result, every counter, every line's state and every L2
// eviction, for any sequence of accesses from either core of a shared
// L2.

// refCache models one cache. A fill into a full set evicts the set's
// least recently used line; lookups that touch a line make it the most
// recently used, state changes and probes leave the order alone.
type refCache struct {
	sets      [][]refLine // per set, most recently used first
	ways      int
	lineShift uint
}

type refLine struct {
	tag uint64
	st  MESI
}

func newRefCache(p Params) *refCache {
	return &refCache{
		sets:      make([][]refLine, p.Sets()),
		ways:      p.Ways,
		lineShift: uint(bits.TrailingZeros(uint(p.LineBytes))),
	}
}

func (c *refCache) locate(addr uint64) (set, pos int) {
	tag := addr >> c.lineShift
	set = int(tag % uint64(len(c.sets)))
	for i, l := range c.sets[set] {
		if l.tag == tag {
			return set, i
		}
	}
	return set, -1
}

func (c *refCache) probe(addr uint64) MESI {
	s, i := c.locate(addr)
	if i < 0 {
		return Invalid
	}
	return c.sets[s][i].st
}

// touch returns the state of addr's line, making a resident line the
// most recently used of its set.
func (c *refCache) touch(addr uint64) MESI {
	s, i := c.locate(addr)
	if i < 0 {
		return Invalid
	}
	l := c.sets[s][i]
	rest := append(append([]refLine(nil), c.sets[s][:i]...), c.sets[s][i+1:]...)
	c.sets[s] = append([]refLine{l}, rest...)
	return l.st
}

// fill installs the absent line of addr as most recently used and
// reports the line a full set evicted.
func (c *refCache) fill(addr uint64, st MESI) (ev refLine, evicted bool) {
	s, i := c.locate(addr)
	if i >= 0 {
		panic(fmt.Sprintf("reference: fill of resident line %#x", addr))
	}
	lines := append([]refLine{{tag: addr >> c.lineShift, st: st}}, c.sets[s]...)
	if len(lines) > c.ways {
		ev, evicted = lines[c.ways], true
		lines = lines[:c.ways]
	}
	c.sets[s] = lines
	return ev, evicted
}

func (c *refCache) setState(addr uint64, st MESI) {
	s, i := c.locate(addr)
	c.sets[s][i].st = st
}

func (c *refCache) remove(addr uint64) MESI {
	s, i := c.locate(addr)
	if i < 0 {
		return Invalid
	}
	st := c.sets[s][i].st
	c.sets[s] = append(c.sets[s][:i:i], c.sets[s][i+1:]...)
	return st
}

func (c *refCache) reset() {
	for i := range c.sets {
		c.sets[i] = nil
	}
}

type refEvict struct {
	addr uint64
	st   MESI
}

func (e refEvict) String() string { return fmt.Sprintf("%#x/%v", e.addr, e.st) }

// refHier models one core's view: private L1s and TLB over an L2 that
// a second view may share.
type refHier struct {
	l1i, l1d, l2, tlb *refCache
	stats             HierarchyStats
	evicts            *[]refEvict // shared by every view of the L2
}

func newRefHier(cfg Config, l2 *refCache, evicts *[]refEvict) *refHier {
	return &refHier{
		l1i:    newRefCache(cfg.L1I),
		l1d:    newRefCache(cfg.L1D),
		l2:     l2,
		tlb:    newRefCache(Params{SizeBytes: cfg.TLBEntries * cfg.PageBytes, Ways: 4, LineBytes: cfg.PageBytes}),
		evicts: evicts,
	}
}

func (r *refHier) fillL2(addr uint64, st MESI) {
	if ev, ok := r.l2.fill(addr, st); ok {
		*r.evicts = append(*r.evicts, refEvict{ev.tag << r.l2.lineShift, ev.st})
	}
}

func (r *refHier) touchTLB(addr uint64) {
	if r.tlb.touch(addr) == Invalid {
		r.stats.TLBMisses++
		r.tlb.fill(addr, Exclusive)
	}
}

func (r *refHier) fetch(pc uint64) Result {
	r.stats.Fetches++
	if r.l1i.touch(pc) != Invalid {
		return Result{L1Hit: true}
	}
	r.l1i.fill(pc, Shared)
	if r.l2.touch(pc) != Invalid {
		return Result{}
	}
	r.stats.FetchOffChip++
	r.fillL2(pc, Shared)
	return Result{OffChip: true}
}

func (r *refHier) load(addr uint64, shared bool) Result {
	r.stats.Loads++
	r.touchTLB(addr)
	if r.l1d.touch(addr) != Invalid {
		return Result{L1Hit: true}
	}
	r.l1d.fill(addr, Shared)
	if r.l2.touch(addr) != Invalid {
		return Result{}
	}
	r.stats.LoadOffChip++
	st := Exclusive
	if shared {
		st = Shared
	}
	r.fillL2(addr, st)
	return Result{OffChip: true}
}

// store: the L1D is write-through and no-write-allocate, so only the
// L2's state decides whether the store leaves the chip.
func (r *refHier) store(addr uint64) Result {
	r.stats.Stores++
	r.stats.L2StoreTraffic++
	r.touchTLB(addr)
	res := Result{L1Hit: r.l1d.touch(addr) != Invalid}
	switch r.l2.touch(addr) {
	case Modified:
	case Exclusive:
		r.l2.setState(addr, Modified)
	case Shared:
		r.stats.StoreOffChip++
		r.stats.StoreUpgrades++
		r.l2.setState(addr, Modified)
		res.OffChip = true
	case Invalid:
		r.stats.StoreOffChip++
		r.fillL2(addr, Modified)
		res.OffChip = true
	}
	return res
}

// prefetchStore acquires the line Modified; a resident line keeps its
// place in the LRU order.
func (r *refHier) prefetchStore(addr uint64) {
	r.stats.L2PrefetchReqs++
	if r.l2.probe(addr) != Invalid {
		r.l2.setState(addr, Modified)
		return
	}
	r.fillL2(addr, Modified)
}

func (r *refHier) snoopInvalidate(addr uint64) MESI {
	r.l1d.remove(addr)
	r.l1i.remove(addr)
	return r.l2.remove(addr)
}

func (r *refHier) snoopShared(addr uint64) MESI {
	prev := r.l2.probe(addr)
	if prev.Owned() {
		r.l2.setState(addr, Shared)
	}
	return prev
}

func (r *refHier) reset() {
	r.l1i.reset()
	r.l1d.reset()
	r.l2.reset()
	r.tlb.reset()
	r.stats = HierarchyStats{}
}

// refPoolLines is the number of distinct lines an op sequence touches:
// three times the largest geometry's L2, twelve TLB pages.
const (
	refPoolLines = 96
	refBase      = 0x40000
	refOpBytes   = 3
)

// refConfig is the geometry the fuzz byte selects: L1s of 2 sets and an
// L2 of 4 sets, all 1-, 2-, 4- or 8-way, and an 8-entry TLB of 512 B
// pages.
func refConfig(geom uint8) Config {
	ways := 1 << (geom % 4)
	return Config{
		L1I:        Params{SizeBytes: 2 * ways * 64, Ways: ways, LineBytes: 64},
		L1D:        Params{SizeBytes: 2 * ways * 64, Ways: ways, LineBytes: 64},
		L2:         Params{SizeBytes: 4 * ways * 64, Ways: ways, LineBytes: 64},
		TLBEntries: 8,
		PageBytes:  512,
	}
}

// checkHierarchy runs the op sequence ops (refOpBytes bytes per op)
// through two views of one real hierarchy and of the reference model,
// failing at the first difference. Byte 0 of an op picks the kind (0
// fetch, 1 load, 2 store, 3 store prefetch, 4 shared snoop, 5
// invalidating snoop, 255 reset of both views), bit 3 the view and bit
// 4 the load's shared flag; byte 1 picks the line and byte 2 the offset
// within it.
func checkHierarchy(t *testing.T, geom uint8, ops []byte) {
	cfg := refConfig(geom)
	var got, want []refEvict
	h0 := NewHierarchy(cfg)
	h1 := NewSharedHierarchy(cfg, h0.L2)
	hook := func() {
		for _, h := range []*Hierarchy{h0, h1} {
			h.OnL2Evict = func(addr uint64, st MESI) { got = append(got, refEvict{addr, st}) }
		}
	}
	hook()
	refL2 := newRefCache(cfg.L2)
	r0 := newRefHier(cfg, refL2, &want)
	r1 := newRefHier(cfg, refL2, &want)
	views := [2]struct {
		h *Hierarchy
		r *refHier
	}{{h0, r0}, {h1, r1}}

	agree := func(step int, addr uint64) {
		t.Helper()
		for v, p := range views {
			if p.h.Stats != p.r.stats {
				t.Fatalf("op %d: view %d stats\n got %+v\nwant %+v", step, v, p.h.Stats, p.r.stats)
			}
			for _, c := range []struct {
				name string
				got  *Cache
				want *refCache
			}{{"L1I", p.h.L1I, p.r.l1i}, {"L1D", p.h.L1D, p.r.l1d}, {"L2", p.h.L2, p.r.l2}, {"TLB", p.h.TLB, p.r.tlb}} {
				if g, w := c.got.Probe(addr), c.want.probe(addr); g != w {
					t.Fatalf("op %d: view %d %s state of %#x = %v, want %v", step, v, c.name, addr, g, w)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("op %d: %d L2 evictions, want %d (%v vs %v)", step, len(got), len(want), got, want)
		}
		if n := len(got); n > 0 && got[n-1] != want[n-1] {
			t.Fatalf("op %d: L2 eviction %v, want %v", step, got[n-1], want[n-1])
		}
	}

	for step := 0; step+refOpBytes <= len(ops); step += refOpBytes {
		b0 := ops[step]
		addr := refBase + uint64(ops[step+1]%refPoolLines)<<6 | uint64(ops[step+2]&63)
		p := views[b0>>3&1]
		shared := b0>>4&1 != 0
		var g, w any
		switch b0 % 8 {
		case 0:
			g, w = p.h.Fetch(addr), p.r.fetch(addr)
		case 1:
			g, w = p.h.Load(addr, shared), p.r.load(addr, shared)
		case 2:
			g, w = p.h.Store(addr, shared), p.r.store(addr)
		case 3:
			p.h.PrefetchStore(addr)
			p.r.prefetchStore(addr)
		case 4:
			g, w = p.h.SnoopShared(addr), p.r.snoopShared(addr)
		case 5:
			g, w = p.h.SnoopInvalidate(addr), p.r.snoopInvalidate(addr)
		default:
			if b0 != 255 {
				continue
			}
			h0.Reset()
			h1.Reset()
			hook()
			r0.reset()
			r1.reset()
		}
		if g != w {
			t.Fatalf("op %d (kind %d, view %d, addr %#x): got %+v, want %+v", step/refOpBytes, b0%8, b0>>3&1, addr, g, w)
		}
		agree(step/refOpBytes, addr)
	}
	for i := uint64(0); i < refPoolLines; i++ {
		agree(len(ops)/refOpBytes, refBase+i<<6)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("L2 eviction %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// refCorpus is the op sequences both TestHierarchyMatchesReference and
// FuzzHierarchyMatchesReference start from: for every geometry, a few
// seeded random sequences whose lines mostly repeat or neighbour the
// previous op's, as instruction and store streams do, so the fast paths
// and the fills both see heavy use.
func refCorpus() []struct {
	geom uint8
	ops  []byte
} {
	var corpus []struct {
		geom uint8
		ops  []byte
	}
	for geom := uint8(0); geom < 4; geom++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*4 + int64(geom)))
			ops := make([]byte, 0, 3000*refOpBytes)
			line := byte(0)
			for len(ops) < cap(ops) {
				switch r := rng.Intn(8); {
				case r < 4: // same line
				case r < 6:
					line++
				default:
					line = byte(rng.Intn(refPoolLines))
				}
				kind := byte([]int{0, 0, 0, 1, 1, 2, 2, 3, 4, 5}[rng.Intn(10)])
				if rng.Intn(1000) == 0 {
					kind = 255
				} else {
					kind |= byte(rng.Intn(4)) << 3 // view and shared bits
				}
				ops = append(ops, kind, line, byte(rng.Intn(64)))
			}
			corpus = append(corpus, struct {
				geom uint8
				ops  []byte
			}{geom, ops})
		}
	}
	return corpus
}

// TestHierarchyMatchesReference runs the real hierarchy and the naive
// model side by side on 1-, 2-, 4- and 8-way geometries.
func TestHierarchyMatchesReference(t *testing.T) {
	for i, c := range refCorpus() {
		t.Run(fmt.Sprintf("%dway/%d", 1<<(c.geom%4), i), func(t *testing.T) {
			checkHierarchy(t, c.geom, c.ops)
		})
	}
}

// FuzzHierarchyMatchesReference explores op sequences beyond the
// corpus. The inputs are long, so cap minimization or the run stalls:
//
//	go test -run '^$' -fuzz FuzzHierarchyMatchesReference -fuzzminimizetime 1s ./internal/cache
func FuzzHierarchyMatchesReference(f *testing.F) {
	for _, c := range refCorpus() {
		f.Add(c.geom, c.ops)
	}
	f.Fuzz(checkHierarchy)
}
