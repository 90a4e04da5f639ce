package trace

import (
	"fmt"
	"strings"

	"storemlp/internal/isa"
)

// Stats summarizes the static properties of an instruction stream —
// the quantities in the paper's Table 1 numerator (store frequency) and
// the workload calibration tests.
type Stats struct {
	Total       int64
	ByOp        [isa.NumOps]int64
	LockAcquire int64
	LockRelease int64
	SharedMem   int64
	Mispredicts int64
}

// Loads counts instructions that read data memory (including atomics).
func (s *Stats) Loads() int64 {
	return s.ByOp[isa.OpLoad] + s.ByOp[isa.OpCASA] + s.ByOp[isa.OpLoadLocked]
}

// Stores counts instructions that write data memory (including atomics).
func (s *Stats) Stores() int64 {
	return s.ByOp[isa.OpStore] + s.ByOp[isa.OpCASA] + s.ByOp[isa.OpStoreCond]
}

// Per100 converts a count into "per 100 instructions", the unit of the
// paper's Table 1.
func (s *Stats) Per100(n int64) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Total)
}

// Add accumulates one instruction.
func (s *Stats) Add(in isa.Inst) {
	s.Total++
	s.ByOp[in.Op]++
	if in.Flags.Has(isa.FlagLockAcquire) {
		s.LockAcquire++
	}
	if in.Flags.Has(isa.FlagLockRelease) {
		s.LockRelease++
	}
	if in.Op.IsMem() && in.Flags.Has(isa.FlagShared) {
		s.SharedMem++
	}
	if in.Op == isa.OpBranch && in.Flags.Has(isa.FlagMispredict) {
		s.Mispredicts++
	}
}

// Gather drains src, accumulating statistics.
func Gather(src Source) Stats {
	var s Stats
	var buf [1024]isa.Inst
	for {
		n := Fill(src, buf[:])
		if n == 0 {
			return s
		}
		for _, in := range buf[:n] {
			s.Add(in)
		}
	}
}

// String renders a one-line-per-class summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instructions: %d\n", s.Total)
	for op := 0; op < isa.NumOps; op++ {
		if s.ByOp[op] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %12d (%6.2f/100)\n",
			isa.Op(op), s.ByOp[op], s.Per100(s.ByOp[op]))
	}
	fmt.Fprintf(&b, "  lock acq/rel: %d/%d  shared mem: %d  mispredicts: %d\n",
		s.LockAcquire, s.LockRelease, s.SharedMem, s.Mispredicts)
	return b.String()
}
