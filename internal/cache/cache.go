// Package cache models the on-chip cache hierarchy of the paper's
// default configuration (§4.3): private 32 KB 4-way L1 instruction and
// data caches (the D-cache is write-through, no-write-allocate), a
// shared 2 MB 4-way L2, and a 2K-entry TLB, all with 64 B lines and LRU
// replacement. L2 lines carry MESI states so that store misses,
// ownership upgrades, and cross-chip invalidations can be modelled.
package cache

import (
	"fmt"
	"math/bits"
)

// MESI is the coherence state of a cache line.
type MESI uint8

const (
	// Invalid: the line is not present.
	Invalid MESI = iota
	// Shared: present, clean, possibly cached by other chips; a store
	// requires an ownership upgrade (cross-chip invalidation).
	Shared
	// Exclusive: present, clean, owned by this chip; a store may proceed
	// without any cross-chip transaction.
	Exclusive
	// Modified: present, dirty, owned by this chip.
	Modified
)

func (s MESI) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Owned reports whether the state permits a store without a cross-chip
// ownership transaction.
func (s MESI) Owned() bool { return s == Exclusive || s == Modified }

// Params sizes a cache.
type Params struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size (power of two)
}

// Sets returns the number of sets implied by the parameters.
func (p Params) Sets() int { return p.SizeBytes / (p.Ways * p.LineBytes) }

// Validate checks that the geometry is realizable.
func (p Params) Validate() error {
	if p.SizeBytes <= 0 || p.Ways <= 0 || p.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", p)
	}
	if p.LineBytes&(p.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", p.LineBytes)
	}
	sets := p.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a positive power of two (size %d, ways %d, line %d)",
			sets, p.SizeBytes, p.Ways, p.LineBytes)
	}
	return nil
}

// way packs one cache way into 16 bytes: ent holds tag<<2|state (state
// in the low two bits; a zero state marks the way empty, so tag match
// and validity test are a single compare), lru the use clock. A 4-way
// set is then exactly one 64-byte cache line. Tags must fit in 62 bits,
// which every address the simulator generates satisfies.
type way struct {
	ent uint64
	lru uint64 // higher = more recently used; 0 exactly when empty
}

// set changes the state of a valid way in place.
func (w *way) set(s MESI) { w.ent = w.ent&^3 | uint64(s) }

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	ways      []way  // sets*assoc entries, set-major
	assoc     int    //storemlp:keep (geometry, fixed at construction)
	lineShift uint   //storemlp:keep
	setMask   uint64 //storemlp:keep
	clock     uint64
}

// New builds a cache; it panics on invalid geometry (construction-time
// configuration errors are programmer errors).
func New(p Params) *Cache {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	sets := p.Sets()
	return &Cache{
		ways:      make([]way, sets*p.Ways),
		assoc:     p.Ways,
		lineShift: uint(bits.TrailingZeros(uint(p.LineBytes))),
		setMask:   uint64(sets - 1),
	}
}

// access is the cache's one set-access primitive. It scans the set for
// the line of addr and returns the line's way and state; touch makes a
// hit the most recently used way of its set. On a miss with fill !=
// Invalid it fills the set's victim — the last empty way, else the
// least recently used — with the line in state fill, most recently
// used, and returns that way with state Invalid and the victim's old
// entry (state bits zero if the way was empty). A miss without a fill
// returns a nil way. Callers change the returned way's state in place.
//
// The victim is chosen only after the scan misses: tracking it during
// the scan puts a data-dependent branch on every way a hit passes.
// Empty ways keep lru 0 and valid ways a unique clock value above it,
// so the victim is the last way holding the smallest lru.
//
//storemlp:noalloc
func (c *Cache) access(addr uint64, touch bool, fill MESI) (w *way, st MESI, evicted uint64) {
	tag := addr >> c.lineShift
	want := tag << 2
	idx := tag & c.setMask
	set := c.ways[idx*uint64(c.assoc) : (idx+1)*uint64(c.assoc)]
	for i := range set {
		// ent^want clears the tag bits exactly when the tags agree,
		// leaving the state, so a valid match is a result in [1,3].
		if x := set[i].ent ^ want; x-1 < 3 {
			w = &set[i]
			if touch {
				c.clock++
				w.lru = c.clock
			}
			return w, MESI(x), 0
		}
	}
	if fill == Invalid {
		return nil, Invalid, 0
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru <= set[victim].lru {
			victim = i
		}
	}
	w = &set[victim]
	evicted = w.ent
	c.clock++
	*w = way{ent: want | uint64(fill), lru: c.clock}
	return w, Invalid, evicted
}

// Probe reports the state of the line containing addr without updating
// LRU.
func (c *Cache) Probe(addr uint64) MESI {
	_, st, _ := c.access(addr, false, Invalid)
	return st
}

// invalidate removes the line containing addr, returning its previous
// state (Invalid if it was not present).
func (c *Cache) invalidate(addr uint64) MESI {
	w, st, _ := c.access(addr, false, Invalid)
	if w != nil {
		*w = way{}
	}
	return st
}

// Reset empties the cache, returning it to its as-constructed state
// without reallocating.
func (c *Cache) Reset() {
	clear(c.ways)
	c.clock = 0
}
