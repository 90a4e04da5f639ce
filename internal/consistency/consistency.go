// Package consistency models the two memory consistency model families
// the paper studies and the trace transformations between them.
//
// Processor consistency (PC) is concretely SPARC TSO: stores become
// globally visible in program order, critical sections are entered with
// the atomic casa and exited with an ordinary store, and casa/membar
// are serializing — they drain both the pipeline and the store
// buffer/queue.
//
// Weak consistency (WC) is concretely the PowerPC model: stores may
// commit out of order, lock acquisition uses the lwarx/stwcx pair
// followed by isync (which drains the pipeline but NOT the store
// queue), and lock release uses lwsync followed by the releasing store
// (lwsync orders commits without stalling execution).
//
// The paper's traces were collected on TSO binaries; to simulate WC it
// built "a lock detection tool ... to identify all the lock acquisition
// and lock release instruction sequences in the traces", then replaced
// them with the WC idiom. DetectLocks and Rewrite reproduce that tool;
// Rewrite also applies Speculative Lock Elision (lock acquire becomes a
// plain load, lock release becomes a NOP) or its transactional-memory
// alternative in the same pass.
package consistency

import (
	"fmt"
	"strings"

	"storemlp/internal/isa"
	"storemlp/internal/trace"
)

// Model selects the memory consistency model the epoch engine enforces.
type Model uint8

const (
	// PC is processor consistency (SPARC TSO): in-order store commit;
	// casa/membar drain pipeline + store buffer/queue; store coalescing
	// only between consecutive stores.
	PC Model = iota
	// WC is weak consistency (PowerPC): out-of-order store commit; isync
	// drains only the pipeline; lwsync orders commits; coalescing with
	// any eligible store queue entry.
	WC
)

func (m Model) String() string {
	if m == PC {
		return "PC"
	}
	return "WC"
}

// Valid reports whether m is a defined model.
func (m Model) Valid() bool { return m == PC || m == WC }

// ParseModel maps a model name to its Model: "pc" or "tso" for PC, "wc"
// or "powerpc" for WC, in any case.
func ParseModel(name string) (Model, error) {
	switch strings.ToLower(name) {
	case "pc", "tso":
		return PC, nil
	case "wc", "powerpc":
		return WC, nil
	}
	return PC, fmt.Errorf("unknown model %q (want pc or wc)", name)
}

// InOrderCommit reports whether stores must commit in program order.
func (m Model) InOrderCommit() bool { return m == PC }

// DrainsStoresOnSerialize reports whether the model's serializing
// instructions require the store buffer and store queue to drain — the
// key PC/WC difference for store performance (§3.3.4).
func (m Model) DrainsStoresOnSerialize() bool { return m == PC }

// DetectLocks scans a PC (TSO) instruction stream and marks lock
// acquisition and release instructions, reproducing the paper's lock
// detection tool. The TSO idiom is: casa to the lock address acquires;
// the next ordinary store to the same address releases. Detection is
// purely structural — any generator-provided flags are ignored and
// overwritten.
func DetectLocks(src trace.Source) trace.Source {
	held := make(map[uint64]struct{})
	return trace.Map(src, func(in isa.Inst) (isa.Inst, bool) {
		in.Flags &^= isa.FlagLockAcquire | isa.FlagLockRelease
		switch in.Op {
		case isa.OpCASA:
			held[in.Addr] = struct{}{}
			in.Flags |= isa.FlagLockAcquire
		case isa.OpStore:
			if _, ok := held[in.Addr]; ok {
				delete(held, in.Addr)
				in.Flags |= isa.FlagLockRelease
			}
		default:
			// Every other instruction class passes through unchanged:
			// only casa acquires and only a plain store releases under
			// the TSO lock idiom.
		}
		return in, true
	})
}

// Rewrite returns src as the model m runs it, with Speculative Lock
// Elision (sle) or transactional memory (tm) applied, in one pass. It
// reproduces the paper's lock rewrite; instructions must already carry
// lock flags (from the workload generator or DetectLocks).
//
// Under WC the TSO lock idioms become the PowerPC ones:
//
//	casa (acquire)        -> lwarx ; stwcx ; isync
//	store (release)       -> lwsync ; store
//	membar                -> lwsync
//
// SLE (§3.3.4) assumes, as the paper's experiments do, that every
// elision succeeds: the serializing acquire becomes a plain load of the
// lock word and the release (with its lwsync) becomes a NOP, so neither
// constrains store, load or instruction MLP. TM ([14]) turns critical
// sections into always-committing transactions: the acquire sequence
// and the release disappear entirely, and the lock word is never read.
// SLE and TM apply after the WC rewrite, to a stream of either model.
// With PC and neither optimization Rewrite returns src itself.
func Rewrite(src trace.Source, m Model, sle, tm bool) trace.Source {
	if m == PC && !sle && !tm {
		return src
	}
	return &rewriter{src: src, wc: m == WC, sle: sle, tm: tm}
}

// lockFlags marks the instructions Rewrite may change, besides membar.
const lockFlags = isa.FlagLockAcquire | isa.FlagLockRelease

// rewriter is Rewrite's source. Input is pulled in blocks no larger
// than the caller's; instructions with no lock flag that are not a
// membar, nearly every one, are copied straight through. Input left over
// when the caller's block fills waits in block for the next call, and
// the outputs of an expansion that straddles the end of the caller's
// block wait in pending, so block boundaries never reorder the stream.
type rewriter struct {
	src         trace.Source
	wc, sle, tm bool
	block       []isa.Inst // the current input block
	next        int        // first unconsumed instruction of block
	pending     []isa.Inst // undelivered outputs, in spill
	spill       [3]isa.Inst
}

// ReadBatch implements trace.Source.
func (r *rewriter) ReadBatch(dst []isa.Inst) int {
	n := copy(dst, r.pending)
	if r.pending = r.pending[n:]; len(r.pending) > 0 {
		return n
	}
	for n < len(dst) {
		if r.next == len(r.block) {
			want := len(dst) - n
			if cap(r.block) < want {
				r.block = make([]isa.Inst, want)
			}
			k := trace.Fill(r.src, r.block[:want])
			if k == 0 {
				break
			}
			r.block, r.next = r.block[:k], 0
		}
		blk, i := r.block, r.next
		for i < len(blk) && n < len(dst) {
			// Copy the run of instructions the rewrite leaves alone in
			// one move, then rewrite the lock instruction that ends it.
			run := blk[i:min(len(blk), i+len(dst)-n)]
			j := 0
			for j < len(run) && run[j].Flags&lockFlags == 0 && run[j].Op != isa.OpMembar {
				j++
			}
			n += copy(dst[n:], run[:j])
			if i += j; j == len(run) {
				break
			}
			var out [3]isa.Inst
			m := r.lock(blk[i], &out)
			i++
			k := copy(dst[n:], out[:m])
			n += k
			r.pending = r.spill[:copy(r.spill[:], out[k:m])]
		}
		r.next = i
	}
	return n
}

// lock rewrites one lock-flagged instruction or membar into out and
// returns how many instructions it became (0..3): the WC expansion
// first, then SLE or TM, as the rules compose when applied one after
// the other.
func (r *rewriter) lock(in isa.Inst, out *[3]isa.Inst) int {
	acq := in.Flags.Has(isa.FlagLockAcquire)
	rel := in.Flags.Has(isa.FlagLockRelease)
	elide := r.sle || r.tm
	if r.wc && in.Op == isa.OpMembar {
		in.Op = isa.OpLWSync
	}
	switch {
	case in.Op == isa.OpCASA && acq:
		switch {
		case r.sle:
			// casa, or lwarx with its stwcx and isync elided.
			in.Op = isa.OpLoad
		case r.tm:
			return 0
		case r.wc:
			out[0] = in
			out[0].Op = isa.OpLoadLocked
			out[1] = in
			out[1].Op = isa.OpStoreCond
			out[1].PC += 4
			out[1].Dst = 0
			out[2] = isa.Inst{Op: isa.OpISync, PC: in.PC + 8, Flags: in.Flags}
			return 3
		}
	case in.Op == isa.OpStore && rel:
		switch {
		case elide:
			return 0
		case r.wc:
			// The barrier carries the release flag too so that SLE
			// can recognize and elide the whole release idiom.
			out[0] = isa.Inst{Op: isa.OpLWSync, PC: in.PC, Flags: in.Flags}
			out[1] = in
			out[1].PC += 4
			return 2
		}
	case r.sle && in.Op == isa.OpLoadLocked && acq:
		in.Op = isa.OpLoad
	case elide && acq && (in.Op == isa.OpLoadLocked || in.Op == isa.OpStoreCond || in.Op == isa.OpISync):
		return 0
	case elide && rel && in.Op == isa.OpLWSync:
		return 0
	default:
		// Everything else passes through: unflagged serializers (an
		// atomic counter's casa, a PC membar) and flags on instructions
		// outside the lock idioms.
	}
	out[0] = in
	return 1
}

// Validate reports an error for undefined model values.
func Validate(m Model) error {
	if !m.Valid() {
		return fmt.Errorf("consistency: undefined model %d", m)
	}
	return nil
}
