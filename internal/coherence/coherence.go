// Package coherence models the cross-chip coherence traffic seen by the
// observed node in a multi-node system.
//
// The paper simulates 2-node and 4-node multiprocessors and "accurately
// model[s] the cross-chip coherence traffic" (§4.2). We reproduce the
// part of that traffic that matters to the store MLP study: remote
// nodes' accesses to shared lines generate snoops at the observed node,
// which demote or invalidate L2 lines and invalidate SMAC ownership
// bits, limiting SMAC effectiveness (Figure 6).
//
// Remote nodes run the same workload, so their snoop stream is modelled
// as a rate process over the workload's shared-region map: for every
// thousand instructions the local core executes, each remote node
// contributes a calibrated number of conflicting accesses to shared
// lines, split between stores (request-to-own snoops) and loads (shared
// snoops).
package coherence

import (
	"fmt"
	"math/rand"
)

// Region is a contiguous block of shared physical address space.
type Region struct {
	Base uint64
	Size uint64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// SnoopKind distinguishes the two remote request types.
type SnoopKind uint8

const (
	// SnoopRTO is a remote request-to-own (remote store): the local copy
	// must be invalidated.
	SnoopRTO SnoopKind = iota
	// SnoopRead is a remote read: a locally owned copy is demoted to
	// Shared.
	SnoopRead
)

func (k SnoopKind) String() string {
	if k == SnoopRTO {
		return "rto"
	}
	return "read"
}

// Snoop is one remote coherence request arriving at the observed node.
type Snoop struct {
	Addr uint64
	Kind SnoopKind
}

// Handler consumes snoops (the epoch engine wires this to the cache
// hierarchy and the SMAC).
type Handler func(Snoop)

// TrafficSpec calibrates the remote traffic for one workload.
type TrafficSpec struct {
	// Regions is the shared address space contended across nodes.
	Regions []Region
	// EventsPerKiloInst is the number of conflicting remote accesses per
	// 1000 locally executed instructions, per remote node.
	EventsPerKiloInst float64
	// StoreFraction is the fraction of remote events that are stores
	// (request-to-own) rather than reads.
	StoreFraction float64
	// LineBytes aligns snoop addresses to cache lines.
	LineBytes int
}

// Validate checks the spec.
func (s TrafficSpec) Validate() error {
	if s.EventsPerKiloInst < 0 {
		return fmt.Errorf("coherence: negative event rate %v", s.EventsPerKiloInst)
	}
	if s.StoreFraction < 0 || s.StoreFraction > 1 {
		return fmt.Errorf("coherence: store fraction %v outside [0,1]", s.StoreFraction)
	}
	if s.EventsPerKiloInst > 0 && len(s.Regions) == 0 {
		return fmt.Errorf("coherence: traffic requested but no shared regions")
	}
	if s.LineBytes <= 0 || s.LineBytes&(s.LineBytes-1) != 0 {
		return fmt.Errorf("coherence: line size %d not a power of two", s.LineBytes)
	}
	for _, r := range s.Regions {
		if r.Size == 0 {
			return fmt.Errorf("coherence: empty region at %#x", r.Base)
		}
	}
	return nil
}

// Traffic generates the snoop stream from remote nodes. It is advanced
// in local-instruction time by the epoch engine.
type Traffic struct {
	spec    TrafficSpec //storemlp:keep (calibration, fixed at construction)
	nodes   int         //storemlp:keep
	seed    int64       //storemlp:keep (Reset replays the same seed)
	rng     *rand.Rand
	handler Handler //storemlp:keep (re-wired by the engine, not per run)
	acc     float64
	perInst float64 //storemlp:keep events accrued per instruction; 0 disables
	lineMsk uint64  //storemlp:keep

	// Delivered counts snoops emitted so far.
	Delivered int64
}

// NewTraffic builds a traffic source for a system with the given total
// node count (1 disables traffic entirely). handler may be nil and set
// later with SetHandler.
func NewTraffic(spec TrafficSpec, nodes int, seed int64, handler Handler) (*Traffic, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("coherence: node count %d < 1", nodes)
	}
	t := &Traffic{
		spec:    spec,
		nodes:   nodes,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		handler: handler,
		lineMsk: ^uint64(spec.LineBytes - 1),
	}
	if nodes > 1 && spec.EventsPerKiloInst > 0 {
		t.perInst = spec.EventsPerKiloInst * float64(nodes-1) / 1000
	}
	return t, nil
}

// SetHandler installs the snoop consumer.
func (t *Traffic) SetHandler(h Handler) { t.handler = h }

// Reset rewinds the traffic source to its as-constructed state: the
// same seed replays the identical snoop stream.
func (t *Traffic) Reset() {
	t.rng = rand.New(rand.NewSource(t.seed))
	t.acc = 0
	t.Delivered = 0
}

// Nodes returns the total node count.
func (t *Traffic) Nodes() int { return t.nodes }

// Advance accounts for n locally executed instructions and delivers any
// remote snoops that fall due.
//
//storemlp:noalloc
func (t *Traffic) Advance(n int64) {
	if t == nil || t.perInst <= 0 {
		return
	}
	t.acc += float64(n) * t.perInst
	if t.acc >= 1 {
		t.drain()
	}
}

// AdvanceOne is Advance(1) without the scaling multiply: the epoch
// engine's per-instruction call, small enough to inline into the step
// loop so the common no-snoop-due case costs an add and a compare.
//
//storemlp:noalloc
//storemlp:inline
func (t *Traffic) AdvanceOne() {
	if t == nil || t.perInst <= 0 {
		return
	}
	t.acc += t.perInst
	if t.acc >= 1 {
		t.drain()
	}
}

// drain delivers every due snoop. Kept out of Advance's inlined body:
// snoops are rare (a handful per kilo-instruction), so Advance's
// per-instruction cost must stay a multiply-add and a compare.
//
//go:noinline
func (t *Traffic) drain() {
	for t.acc >= 1 {
		t.acc--
		t.emit()
	}
}

func (t *Traffic) emit() {
	r := t.spec.Regions[t.rng.Intn(len(t.spec.Regions))]
	addr := (r.Base + uint64(t.rng.Int63n(int64(r.Size)))) & t.lineMsk
	kind := SnoopRead
	if t.rng.Float64() < t.spec.StoreFraction {
		kind = SnoopRTO
	}
	t.Delivered++
	if t.handler != nil {
		t.handler(Snoop{Addr: addr, Kind: kind})
	}
}
