// Package trace provides the dynamic instruction stream abstraction the
// epoch MLP engine consumes, reading and writing trace files in the
// columnar format of internal/trace/colv1, and stream transforms
// (limit, concat, replay, statistics).
//
// The paper's MLPsim "reads in an instruction trace and a set of
// microarchitecture parameters as inputs"; Source is that trace input.
// Traces may come from the synthetic workload generators
// (internal/workload), from files written by cmd/tracegen, or from
// in-memory slices in tests.
//
// Sources come in two speeds. Next hands over one instruction per
// interface call; BatchSource fills a caller-owned block of
// instructions per call, amortizing interface dispatch, bounds checks
// and cancellation polls across thousands of instructions. The epoch
// engine always pulls through Fill, which uses ReadBatch when the
// source provides it and degrades to a Next loop otherwise, so the two
// speeds are interchangeable everywhere.
package trace

import (
	"storemlp/internal/isa"
)

// Source is a stream of dynamic instructions. Next returns the next
// instruction and true, or a zero Inst and false at end of stream.
// Sources are single-use; use a Replayable source to run the same stream
// through multiple simulator configurations.
type Source interface {
	Next() (isa.Inst, bool)
}

// BatchSource is a Source that can fill whole blocks of instructions at
// a time. ReadBatch writes up to len(dst) instructions into dst and
// returns the number written; it returns 0 only at end of stream (a
// short non-zero read does NOT imply the stream is exhausted). Mixing
// Next and ReadBatch calls on one source is allowed: both consume the
// same underlying stream in order.
type BatchSource interface {
	Source
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

// Fill reads up to len(dst) instructions from src into dst, using the
// batch path when src implements BatchSource and falling back to a Next
// loop otherwise. It returns the number of instructions written; 0
// means end of stream (Fill keeps pulling until dst is full or the
// stream ends, so short reads from underlying batch sources are
// absorbed here).
//
//storemlp:noalloc
func Fill(src Source, dst []isa.Inst) int {
	if bs, ok := src.(BatchSource); ok {
		n := 0
		for n < len(dst) {
			k := bs.ReadBatch(dst[n:])
			if k == 0 {
				break
			}
			n += k
		}
		return n
	}
	n := 0
	for n < len(dst) {
		in, ok := src.Next()
		if !ok {
			break
		}
		dst[n] = in
		n++
	}
	return n
}

// Replayable is a Source that can be reset to its beginning, so that
// identical instruction streams can be fed to many configurations — the
// way every multi-configuration figure in the paper is produced.
type Replayable interface {
	Source
	Reset()
}

// Slice is an in-memory trace. It implements Replayable, BatchSource
// and Sized.
type Slice struct {
	Insts []isa.Inst //storemlp:keep (the trace itself; Reset rewinds, it does not erase)
	pos   int
}

// NewSlice wraps insts in a replayable source.
func NewSlice(insts []isa.Inst) *Slice { return &Slice{Insts: insts} }

// Next implements Source.
func (s *Slice) Next() (isa.Inst, bool) {
	if s.pos >= len(s.Insts) {
		return isa.Inst{}, false
	}
	in := s.Insts[s.pos]
	s.pos++
	return in, true
}

// ReadBatch implements BatchSource: one copy, no per-instruction work.
func (s *Slice) ReadBatch(dst []isa.Inst) int {
	n := copy(dst, s.Insts[s.pos:])
	s.pos += n
	return n
}

// Reset implements Replayable.
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
// slice is allocated once up front; the drain itself runs through the
// batch path.
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
// The returned source is batch-aware: when src implements BatchSource
// (the workload generators, slices and the file codec all do), replay
// through Limit stays on the block path instead of degrading to
// per-instruction calls.
func Limit(src Source, n int64) Source { return &limited{src: src, n: n} }

func (l *limited) Next() (isa.Inst, bool) {
	if l.n <= 0 {
		return isa.Inst{}, false
	}
	l.n--
	return l.src.Next()
}

// ReadBatch implements BatchSource by clamping the destination block to
// the remaining budget.
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

// concat chains sources end to end.
type concat struct {
	srcs []Source
}

// Concat returns a Source that yields all of the given sources in
// order. It is batch-aware per underlying source.
func Concat(srcs ...Source) Source { return &concat{srcs: srcs} }

func (c *concat) Next() (isa.Inst, bool) {
	for len(c.srcs) > 0 {
		in, ok := c.srcs[0].Next()
		if ok {
			return in, true
		}
		c.srcs = c.srcs[1:]
	}
	return isa.Inst{}, false
}

// ReadBatch implements BatchSource.
func (c *concat) ReadBatch(dst []isa.Inst) int {
	for len(c.srcs) > 0 {
		if k := Fill(c.srcs[0], dst); k > 0 {
			return k
		}
		c.srcs = c.srcs[1:]
	}
	return 0
}

// SizeHint implements Sized: the sum of the parts, unknown if any part
// is unknown.
func (c *concat) SizeHint() int64 {
	var total int64
	for _, s := range c.srcs {
		sz, ok := s.(Sized)
		if !ok {
			return -1
		}
		h := sz.SizeHint()
		if h < 0 {
			return -1
		}
		total += h
	}
	return total
}

// Func adapts a function to the Source interface.
type Func func() (isa.Inst, bool)

// Next implements Source.
func (f Func) Next() (isa.Inst, bool) { return f() }

// mapped applies a transform to every instruction of a source. It keeps
// the batch path alive: input blocks are pulled into a scratch buffer
// and transformed in place, so a Map over a batch source costs two
// interface calls per block rather than two per instruction.
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

// Next implements Source.
func (m *mapped) Next() (isa.Inst, bool) {
	for {
		in, ok := m.src.Next()
		if !ok {
			return isa.Inst{}, false
		}
		if out, keep := m.fn(in); keep {
			return out, true
		}
	}
}

// ReadBatch implements BatchSource. A block that the transform entirely
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
