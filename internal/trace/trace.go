// Package trace provides the dynamic instruction stream abstraction the
// epoch MLP engine consumes, reading and writing trace files in the
// columnar format of internal/trace/colv1, and stream transforms
// (limit, map, statistics).
//
// The paper's MLPsim "reads in an instruction trace and a set of
// microarchitecture parameters as inputs"; Source is that trace input.
// Traces may come from the synthetic workload generators
// (internal/workload), from files written by cmd/tracegen, or from
// in-memory slices in tests.
//
// A Source hands over a caller-owned block of instructions per call,
// amortizing interface dispatch, bounds checks and cancellation polls
// across thousands of instructions. Consumers pull through Fill, which
// absorbs short reads.
package trace

import (
	"storemlp/internal/isa"
)

// Source is a stream of dynamic instructions. ReadBatch writes up to
// len(dst) instructions into dst and returns the number written; it
// returns 0 only at end of stream (a short non-zero read does NOT imply
// the stream is exhausted). Sources are single-use.
type Source interface {
	ReadBatch(dst []isa.Inst) int
}

// Sized is implemented by sources that can bound their remaining
// length. SizeHint returns the number of instructions still to be
// produced, or a negative value when unknown. Infinite sources (the
// workload generators) report a huge positive hint so that Limit can
// turn it into an exact count.
type Sized interface {
	SizeHint() int64
}

// Fill reads up to len(dst) instructions from src into dst and returns
// the number written; 0 means end of stream. Fill keeps pulling until
// dst is full or the stream ends, so short reads from the underlying
// source are absorbed here.
//
//storemlp:noalloc
func Fill(src Source, dst []isa.Inst) int {
	n := 0
	for n < len(dst) {
		k := src.ReadBatch(dst[n:])
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// Slice is an in-memory trace. It implements Source and Sized; Reset
// rewinds it, so one slice can feed many configurations.
type Slice struct {
	Insts []isa.Inst //storemlp:keep (the trace itself; Reset rewinds, it does not erase)
	pos   int
}

// NewSlice wraps insts in a rewindable source.
func NewSlice(insts []isa.Inst) *Slice { return &Slice{Insts: insts} }

// ReadBatch implements Source: one copy, no per-instruction work.
func (s *Slice) ReadBatch(dst []isa.Inst) int {
	n := copy(dst, s.Insts[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the slice to its first instruction.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the trace.
func (s *Slice) Len() int { return len(s.Insts) }

// SizeHint implements Sized with the remaining length.
func (s *Slice) SizeHint() int64 { return int64(len(s.Insts) - s.pos) }

// collectPreallocCap bounds how far Collect trusts a size hint when
// preallocating, so a corrupt or hostile trace header cannot force a
// giant up-front allocation. Larger traces still collect fully; they
// just grow from this initial capacity.
const collectPreallocCap = 1 << 22

// Collect drains src into a Slice. It is intended for tests and for
// materializing generator output before writing it to disk or replaying
// it across configurations. When src exposes a size hint the backing
// slice is allocated once up front.
func Collect(src Source) *Slice {
	var insts []isa.Inst
	if sz, ok := src.(Sized); ok {
		if hint := sz.SizeHint(); hint > 0 {
			if hint > collectPreallocCap {
				hint = collectPreallocCap
			}
			insts = make([]isa.Inst, 0, hint)
		}
	}
	var buf [1024]isa.Inst
	for {
		n := Fill(src, buf[:])
		if n == 0 {
			break
		}
		insts = append(insts, buf[:n]...)
	}
	return NewSlice(insts)
}

// limited truncates a source after n instructions.
type limited struct {
	src Source
	n   int64
}

// Limit returns a Source that yields at most n instructions from src.
func Limit(src Source, n int64) Source { return &limited{src: src, n: n} }

// ReadBatch implements Source by clamping the destination block to the
// remaining budget.
func (l *limited) ReadBatch(dst []isa.Inst) int {
	if l.n <= 0 {
		return 0
	}
	if int64(len(dst)) > l.n {
		dst = dst[:l.n]
	}
	k := Fill(l.src, dst)
	l.n -= int64(k)
	return k
}

// SizeHint implements Sized: the budget, tightened by the underlying
// source's own hint when it has one.
func (l *limited) SizeHint() int64 {
	if sz, ok := l.src.(Sized); ok {
		if h := sz.SizeHint(); h >= 0 && h < l.n {
			return h
		}
	}
	return l.n
}

// mapped applies a transform to every instruction of a source: input
// blocks are pulled into a scratch buffer and transformed in place, so
// a Map costs two interface calls per block rather than two per
// instruction.
type mapped struct {
	src     Source
	fn      func(isa.Inst) (isa.Inst, bool)
	scratch []isa.Inst
}

// Map returns a Source that applies fn to every instruction of src.
// fn may return false to drop the instruction from the stream.
func Map(src Source, fn func(isa.Inst) (isa.Inst, bool)) Source {
	return &mapped{src: src, fn: fn}
}

// ReadBatch implements Source. A block that the transform entirely
// drops yields another pull, not a premature end of stream.
func (m *mapped) ReadBatch(dst []isa.Inst) int {
	if cap(m.scratch) < len(dst) {
		m.scratch = make([]isa.Inst, len(dst))
	}
	for {
		in := m.scratch[:len(dst)]
		k := Fill(m.src, in)
		if k == 0 {
			return 0
		}
		n := 0
		for i := 0; i < k; i++ {
			if out, keep := m.fn(in[i]); keep {
				dst[n] = out
				n++
			}
		}
		if n > 0 {
			return n
		}
	}
}
