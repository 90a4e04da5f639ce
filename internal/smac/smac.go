// Package smac implements the Store Miss ACcelerator proposed in §3.3.3
// of the paper.
//
// The SMAC decouples line *ownership* from line *data*: when a Modified
// line is evicted from the L2 (losing both), the data is written back to
// memory but the ownership is retained as an Exclusive-state bit in the
// SMAC. A later store that misses the L2 but hits an owned sub-block in
// the SMAC can proceed without paying the cross-chip invalidation
// penalty, exactly as in a single-chip system — the L2 buffers the store
// data and merges it with the rest of the line in the background.
//
// To amortize tag cost, the SMAC is a heavily sub-blocked set-associative
// structure: each entry (tag) covers a 2048-byte super-line divided into
// 32 sub-blocks of 64 bytes, with one ownership bit per sub-block. An
// 8K-entry SMAC therefore covers 16 MB of address space in 64 KB of
// state (64 bits per entry).
package smac

import (
	"fmt"
	"math/bits"
)

// Params sizes a SMAC.
type Params struct {
	Entries        int // number of tags (8K..128K in the paper)
	Ways           int // associativity
	SuperLineBytes int // bytes covered per tag (2048 in the paper)
	SubBlockBytes  int // ownership granularity (the 64 B L2 line size)
}

// DefaultParams returns the paper's geometry for the given entry count.
func DefaultParams(entries int) Params {
	return Params{Entries: entries, Ways: 8, SuperLineBytes: 2048, SubBlockBytes: 64}
}

// SubBlocks returns the number of sub-blocks per entry.
func (p Params) SubBlocks() int { return p.SuperLineBytes / p.SubBlockBytes }

// CoverageBytes returns the address-space coverage of the SMAC.
func (p Params) CoverageBytes() int64 { return int64(p.Entries) * int64(p.SuperLineBytes) }

// Validate checks the geometry.
func (p Params) Validate() error {
	if p.Entries <= 0 || p.Ways <= 0 {
		return fmt.Errorf("smac: non-positive entries/ways %+v", p)
	}
	if p.Entries%p.Ways != 0 {
		return fmt.Errorf("smac: entries %d not divisible by ways %d", p.Entries, p.Ways)
	}
	sets := p.Entries / p.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("smac: set count %d not a power of two", sets)
	}
	if p.SuperLineBytes <= 0 || p.SuperLineBytes&(p.SuperLineBytes-1) != 0 {
		return fmt.Errorf("smac: super-line %d not a power of two", p.SuperLineBytes)
	}
	if p.SubBlockBytes <= 0 || p.SubBlockBytes&(p.SubBlockBytes-1) != 0 {
		return fmt.Errorf("smac: sub-block %d not a power of two", p.SubBlockBytes)
	}
	n := p.SubBlocks()
	if n < 1 || n > 64 {
		return fmt.Errorf("smac: %d sub-blocks per entry unsupported (need 1..64)", n)
	}
	return nil
}

type entry struct {
	tag   uint64
	owned uint64 // per-sub-block E bits
	inval uint64 // sub-blocks that were owned but lost to a remote snoop
	lru   uint64
	valid bool
}

// Stats counts SMAC events; the two Figure 6 series are
// CoherenceInvalidates (left graph, per 1000 instructions) and
// HitInvalidated vs total store-miss probes (right graph).
type Stats struct {
	Evictions            int64 // M-line evictions recorded from the L2
	Probes               int64 // store-miss lookups
	Hits                 int64 // store misses accelerated (owned sub-block)
	HitInvalidated       int64 // matching entry, but sub-block was invalidated by coherence
	Misses               int64 // no useful entry
	CoherenceInvalidates int64 // owned sub-blocks lost to remote snoops
	EntryEvictions       int64 // SMAC tags displaced by capacity
}

// SMAC is the store-miss accelerator structure. A nil *SMAC behaves as
// "no SMAC": probes always miss and recording is a no-op, so the epoch
// engine can hold one unconditionally.
type SMAC struct {
	params     Params  //storemlp:keep (geometry, fixed at construction)
	sets       []entry // sets*ways, set-major
	ways       int     //storemlp:keep
	superShift uint    //storemlp:keep
	subShift   uint    //storemlp:keep
	subMask    uint64  //storemlp:keep
	setMask    uint64  //storemlp:keep
	clock      uint64

	Stats Stats
}

// New builds a SMAC; it panics on invalid geometry.
func New(p Params) *SMAC {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	sets := p.Entries / p.Ways
	return &SMAC{
		params:     p,
		sets:       make([]entry, p.Entries),
		ways:       p.Ways,
		superShift: uint(bits.TrailingZeros(uint(p.SuperLineBytes))),
		subShift:   uint(bits.TrailingZeros(uint(p.SubBlockBytes))),
		subMask:    uint64(p.SubBlocks() - 1),
		setMask:    uint64(sets - 1),
	}
}

// Params returns the geometry the SMAC was built with.
func (s *SMAC) Params() Params { return s.params }

func (s *SMAC) index(addr uint64) (set []entry, tag uint64, bit uint64) {
	tag = addr >> s.superShift
	setIdx := tag & s.setMask
	bit = 1 << ((addr >> s.subShift) & s.subMask)
	return s.sets[setIdx*uint64(s.ways) : (setIdx+1)*uint64(s.ways)], tag, bit
}

func (s *SMAC) find(set []entry, tag uint64) *entry {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// RecordEviction notes that a Modified line at addr was evicted from the
// L2: its data goes to memory but this chip keeps ownership of the
// sub-block. Allocates (possibly evicting) a SMAC entry.
func (s *SMAC) RecordEviction(addr uint64) {
	if s == nil {
		return
	}
	s.Stats.Evictions++
	set, tag, bit := s.index(addr)
	s.clock++
	if e := s.find(set, tag); e != nil {
		e.owned |= bit
		e.inval &^= bit
		e.lru = s.clock
		return
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		s.Stats.EntryEvictions++
	}
	set[victim] = entry{tag: tag, owned: bit, lru: s.clock, valid: true}
}

// ProbeResult classifies a store-miss lookup.
type ProbeResult uint8

const (
	// Miss: no matching entry (or sub-block never owned) — the store miss
	// pays the full invalidation penalty.
	Miss ProbeResult = iota
	// Hit: the sub-block is held in Exclusive state — the store miss is
	// accelerated and skips the invalidation penalty.
	Hit
	// HitInvalidated: a matching entry exists but the sub-block was
	// invalidated by a coherence event from another node (the Figure 6
	// right-hand metric).
	HitInvalidated
)

func (r ProbeResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case HitInvalidated:
		return "hit-invalidated"
	default:
		return "miss"
	}
}

// ProbeStore is called for a store that missed the L2. On Hit the
// ownership bit is consumed (the line returns to the L2 in Modified
// state, so the SMAC no longer needs to track it).
func (s *SMAC) ProbeStore(addr uint64) ProbeResult {
	if s == nil {
		return Miss
	}
	s.Stats.Probes++
	set, tag, bit := s.index(addr)
	e := s.find(set, tag)
	if e == nil {
		s.Stats.Misses++
		return Miss
	}
	s.clock++
	e.lru = s.clock
	switch {
	case e.owned&bit != 0:
		s.Stats.Hits++
		e.owned &^= bit // ownership transfers back to the L2 proper
		return Hit
	case e.inval&bit != 0:
		s.Stats.HitInvalidated++
		return HitInvalidated
	default:
		s.Stats.Misses++
		return Miss
	}
}

// SnoopInvalidate applies a remote node's snoop (request-to-own or
// shared read) to the SMAC: an owned sub-block is invalidated, since
// ownership can no longer be asserted. It reports whether an owned
// sub-block was lost.
func (s *SMAC) SnoopInvalidate(addr uint64) bool {
	if s == nil {
		return false
	}
	set, tag, bit := s.index(addr)
	e := s.find(set, tag)
	if e == nil || e.owned&bit == 0 {
		return false
	}
	e.owned &^= bit
	e.inval |= bit
	s.Stats.CoherenceInvalidates++
	return true
}

// OwnedSubBlocks returns the total number of owned sub-blocks (tests).
func (s *SMAC) OwnedSubBlocks() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.sets {
		if s.sets[i].valid {
			n += bits.OnesCount64(s.sets[i].owned)
		}
	}
	return n
}

// Reset empties the SMAC and zeroes its statistics, returning it to its
// as-constructed state without reallocating.
func (s *SMAC) Reset() {
	for i := range s.sets {
		s.sets[i] = entry{}
	}
	s.clock = 0
	s.Stats = Stats{}
}
