package epoch

import (
	"fmt"
	"strings"

	"storemlp/internal/cache"
	"storemlp/internal/smac"
)

// TermCond classifies why an epoch ended — the paper's window
// termination conditions (Figure 3 legend).
type TermCond uint8

const (
	// TermNone: no stall was observed during the epoch (its misses
	// drained without backing up the machine).
	TermNone TermCond = iota
	// TermSBFull: store buffer full, not preceded by store queue full.
	TermSBFull
	// TermSQSBFull: store buffer full preceded by store queue full
	// ("store queue + store buffer full").
	TermSQSBFull
	// TermSQWindowFull: ROB or issue window full preceded by store queue
	// full ("store queue + window full").
	TermSQWindowFull
	// TermStoreSerialize: serializing instruction preceded by missing
	// stores but not missing loads.
	TermStoreSerialize
	// TermOtherSerialize: serializing instruction preceded by at least
	// one missing load.
	TermOtherSerialize
	// TermMispredBranch: mispredicted branch dependent on a missing load.
	TermMispredBranch
	// TermInstMiss: instruction fetch miss.
	TermInstMiss
	// TermWindowFull: ROB or issue window full, not preceded by store
	// queue full.
	TermWindowFull

	// NumTermConds is the number of classifications.
	NumTermConds
)

var termNames = [...]string{
	TermNone:           "none",
	TermSBFull:         "store buffer full",
	TermSQSBFull:       "store queue + store buffer full",
	TermSQWindowFull:   "store queue + window full",
	TermStoreSerialize: "store serialize",
	TermOtherSerialize: "other serialize",
	TermMispredBranch:  "mispred branch",
	TermInstMiss:       "instruction miss",
	TermWindowFull:     "window full",
}

func (t TermCond) String() string {
	if int(t) < len(termNames) {
		return termNames[t]
	}
	return fmt.Sprintf("term(%d)", uint8(t))
}

// epochRec accumulates per-epoch facts during a run. live distinguishes
// a charged epoch from an untouched ring slot: termination conditions
// label only epochs that already carry a charge, exactly as the old
// map-based accounting labelled only epochs present in the map.
type epochRec struct {
	storeMisses int32
	loadMisses  int32
	instMisses  int32
	term        TermCond
	live        bool
}

func (r *epochRec) misses() int64 {
	return int64(r.storeMisses) + int64(r.loadMisses) + int64(r.instMisses)
}

// Histogram bucket limits for the Figure 4 joint MLP distribution.
const (
	// MaxStoreMLPBucket is the ">=10" store MLP bucket index.
	MaxStoreMLPBucket = 10
	// MaxLoadInstBucket is the ">=5" combined load+instruction MLP
	// bucket index.
	MaxLoadInstBucket = 5
)

// Stats is the output of one simulator run — every metric the paper
// reports.
type Stats struct {
	// Insts is the number of measured (post-warmup) instructions.
	Insts int64
	// Epochs is the number of epochs containing at least one off-chip
	// miss, after the fully-overlapped-store adjustment.
	Epochs int64

	// Charged off-chip misses by kind.
	StoreMisses int64
	LoadMisses  int64
	InstMisses  int64

	// OverlappedStores counts missing stores whose latency was fully
	// hidden by computation (Table 2 numerator); their misses are
	// removed from epoch accounting. ExposedStores is the complement.
	OverlappedStores int64
	ExposedStores    int64

	// SMACAccelerated counts store misses that skipped the invalidation
	// penalty via a SMAC hit.
	SMACAccelerated int64

	// EpochsWithStore is the number of epochs with store MLP >= 1; the
	// termination histogram (Figure 3) is over these epochs.
	EpochsWithStore int64
	TermCounts      [NumTermConds]int64

	// MLPJoint[s][l] is the number of epochs with store MLP bucket s
	// (0..10, 10 meaning >=10) and combined load+inst MLP bucket l
	// (0..5, 5 meaning >=5) — Figure 4.
	MLPJoint [MaxStoreMLPBucket + 1][MaxLoadInstBucket + 1]int64

	// Substrate statistics.
	Hierarchy cache.HierarchyStats
	SMAC      smac.Stats
	Snoops    int64
}

// Misses returns the total number of charged off-chip misses.
func (s *Stats) Misses() int64 { return s.StoreMisses + s.LoadMisses + s.InstMisses }

// EPI returns epochs per 1000 instructions — the paper's primary metric.
func (s *Stats) EPI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return 1000 * float64(s.Epochs) / float64(s.Insts)
}

// MLP returns total misses per epoch: the average number of useful
// off-chip accesses outstanding when at least one is outstanding.
func (s *Stats) MLP() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Epochs)
}

// StoreMLP returns the average number of store misses per epoch over
// epochs with at least one store miss.
func (s *Stats) StoreMLP() float64 {
	if s.EpochsWithStore == 0 {
		return 0
	}
	return float64(s.StoreMisses) / float64(s.EpochsWithStore)
}

// LoadInstMLP returns the average number of load plus instruction misses
// per epoch, over all epochs with at least one off-chip miss — the
// horizontal axis of the Figure 4 joint distribution, as a mean.
func (s *Stats) LoadInstMLP() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.LoadMisses+s.InstMisses) / float64(s.Epochs)
}

// OffChipCPI translates EPI into off-chip cycles per instruction for a
// given miss penalty: the product of epochs-per-instruction and the
// penalty (§3.4).
func (s *Stats) OffChipCPI(missPenalty int) float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Epochs) * float64(missPenalty) / float64(s.Insts)
}

// OverlappedStoreFraction is Table 2: the fraction of missing stores
// fully overlapped with computation.
func (s *Stats) OverlappedStoreFraction() float64 {
	total := s.OverlappedStores + s.ExposedStores
	if total == 0 {
		return 0
	}
	return float64(s.OverlappedStores) / float64(total)
}

// TermFraction returns the fraction of store-MLP>=1 epochs terminated by
// cond.
func (s *Stats) TermFraction(cond TermCond) float64 {
	if s.EpochsWithStore == 0 {
		return 0
	}
	return float64(s.TermCounts[cond]) / float64(s.EpochsWithStore)
}

// MLPJointFraction returns the Figure 4 bar segment: fraction of ALL
// epochs having the given store-MLP bucket and load+inst-MLP bucket.
func (s *Stats) MLPJointFraction(storeBucket, loadInstBucket int) float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.MLPJoint[storeBucket][loadInstBucket]) / float64(s.Epochs)
}

// String renders a human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "insts=%d epochs=%d EPI=%.3f/1000 MLP=%.2f storeMLP=%.2f\n",
		s.Insts, s.Epochs, s.EPI(), s.MLP(), s.StoreMLP())
	fmt.Fprintf(&b, "misses: store=%d load=%d inst=%d (overlapped stores=%d, smac-accelerated=%d)\n",
		s.StoreMisses, s.LoadMisses, s.InstMisses, s.OverlappedStores, s.SMACAccelerated)
	if s.EpochsWithStore > 0 {
		fmt.Fprintf(&b, "termination (over %d store epochs):\n", s.EpochsWithStore)
		for t := TermCond(0); t < NumTermConds; t++ {
			if s.TermCounts[t] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-32s %6.3f\n", t.String(), s.TermFraction(t))
		}
	}
	return b.String()
}
