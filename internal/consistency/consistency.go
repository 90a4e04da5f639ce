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
// them with the WC idiom. DetectLocks and RewriteWC reproduce that
// tool, and ElideLocks implements Speculative Lock Elision (lock
// acquire becomes a plain load, lock release becomes a NOP).
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

// RewriteWC converts a PC (TSO) trace into the equivalent WC (PowerPC)
// trace, replacing lock idioms exactly as the paper's tool does:
//
//	casa (acquire)        -> lwarx ; stwcx ; isync
//	store (release)       -> lwsync ; store
//	membar                -> lwsync
//
// Instructions must already carry lock flags (from the workload
// generator or DetectLocks).
func RewriteWC(src trace.Source) trace.Source {
	return &wcRewriter{src: src}
}

// wcRewriter expands one input instruction into at most three outputs.
// Outputs that do not fit the caller's block are parked in pending and
// drained first on the next call, so block boundaries never reorder
// the stream.
type wcRewriter struct {
	src     trace.Source
	pending [3]isa.Inst
	pHead   int
	pLen    int
	scratch []isa.Inst
}

// rewrite expands in into out and returns the number of instructions
// produced (1..3).
func (r *wcRewriter) rewrite(in isa.Inst, out *[3]isa.Inst) int {
	switch {
	case in.Op == isa.OpCASA && in.Flags.Has(isa.FlagLockAcquire):
		ll := in
		ll.Op = isa.OpLoadLocked
		sc := in
		sc.Op = isa.OpStoreCond
		sc.PC += 4
		sc.Dst = 0
		out[0] = ll
		out[1] = sc
		out[2] = isa.Inst{Op: isa.OpISync, PC: in.PC + 8, Flags: in.Flags}
		return 3
	case in.Op == isa.OpStore && in.Flags.Has(isa.FlagLockRelease):
		// The barrier carries the release flag too so that SLE can
		// recognize and elide the whole release idiom.
		out[0] = isa.Inst{Op: isa.OpLWSync, PC: in.PC, Flags: in.Flags}
		rel := in
		rel.PC += 4
		out[1] = rel
		return 2
	case in.Op == isa.OpMembar:
		in.Op = isa.OpLWSync
		out[0] = in
		return 1
	default:
		out[0] = in
		return 1
	}
}

// ReadBatch implements trace.Source. Input blocks are sized to a
// third of the remaining room so the worst-case 3x expansion fits; any
// spill from the final input lands in pending for the next call.
func (r *wcRewriter) ReadBatch(dst []isa.Inst) int {
	n := 0
	for n < len(dst) && r.pHead < r.pLen {
		dst[n] = r.pending[r.pHead]
		r.pHead++
		n++
	}
	if r.pHead == r.pLen {
		r.pHead, r.pLen = 0, 0
	}
	for n < len(dst) {
		want := (len(dst) - n) / 3
		if want < 1 {
			want = 1
		}
		if want > cap(r.scratch) {
			r.scratch = make([]isa.Inst, want)
		}
		k := trace.Fill(r.src, r.scratch[:want])
		if k == 0 {
			break
		}
		var out [3]isa.Inst
		for i := 0; i < k; i++ {
			m := r.rewrite(r.scratch[i], &out)
			for j := 0; j < m; j++ {
				if n < len(dst) {
					dst[n] = out[j]
					n++
				} else {
					r.pending[r.pLen] = out[j]
					r.pLen++
				}
			}
		}
	}
	return n
}

// ElideLocks applies Speculative Lock Elision (§3.3.4) to a trace of
// either model, assuming (as the paper's experiments do) that every
// elision succeeds: the serializing lock acquire becomes a plain load of
// the lock word and the releasing store becomes a NOP (is dropped), so
// neither constrains store, load or instruction MLP.
func ElideLocks(src trace.Source) trace.Source {
	return trace.Map(src, func(in isa.Inst) (isa.Inst, bool) {
		switch {
		case in.Op == isa.OpCASA && in.Flags.Has(isa.FlagLockAcquire):
			in.Op = isa.OpLoad
			return in, true
		case in.Op == isa.OpLoadLocked && in.Flags.Has(isa.FlagLockAcquire):
			in.Op = isa.OpLoad
			return in, true
		case in.Op == isa.OpStoreCond && in.Flags.Has(isa.FlagLockAcquire):
			return isa.Inst{}, false
		case in.Op == isa.OpISync && in.Flags.Has(isa.FlagLockAcquire):
			return isa.Inst{}, false
		case in.Flags.Has(isa.FlagLockRelease) && (in.Op == isa.OpStore || in.Op == isa.OpLWSync):
			return isa.Inst{}, false
		default:
			return in, true
		}
	})
}

// ApplyTM applies the transactional-memory alternative to SLE (§3.3.4,
// [14]): critical sections become transactions. Where SLE turns the lock
// acquire into a plain load of the lock word (the processor still reads
// it to validate the elision), TM never touches the lock word at all —
// the acquire sequence and the release disappear entirely, with the
// hardware tracking the transaction's read/write set instead. As in the
// paper's SLE experiments, every transaction is assumed to succeed.
func ApplyTM(src trace.Source) trace.Source {
	return trace.Map(src, func(in isa.Inst) (isa.Inst, bool) {
		switch {
		case in.Flags.Has(isa.FlagLockAcquire) &&
			(in.Op == isa.OpCASA || in.Op == isa.OpLoadLocked ||
				in.Op == isa.OpStoreCond || in.Op == isa.OpISync):
			return isa.Inst{}, false
		case in.Flags.Has(isa.FlagLockRelease) && (in.Op == isa.OpStore || in.Op == isa.OpLWSync):
			return isa.Inst{}, false
		default:
			return in, true
		}
	})
}

// Validate reports an error for undefined model values.
func Validate(m Model) error {
	if !m.Valid() {
		return fmt.Errorf("consistency: undefined model %d", m)
	}
	return nil
}
