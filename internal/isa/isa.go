// Package isa defines the abstract instruction set consumed by the epoch
// MLP engine.
//
// The paper's analysis distinguishes only a handful of instruction
// classes: ordinary computation, loads, stores, branches, and the
// serializing / synchronizing instructions that implement critical
// sections under the two memory consistency models it studies (SPARC TSO
// for processor consistency, PowerPC for weak consistency). This package
// models exactly those classes plus the register-dependence information
// the engine needs to decide which off-chip accesses can overlap.
package isa

import "fmt"

// Op is the instruction class of a dynamic instruction.
type Op uint8

const (
	// OpALU is any on-chip computation: integer/FP arithmetic, address
	// arithmetic, register moves. It has no memory side effects.
	OpALU Op = iota
	// OpLoad reads Size bytes from Addr into Dst.
	OpLoad
	// OpStore writes Size bytes from Src1 to Addr.
	OpStore
	// OpBranch is a conditional branch whose direction depends on Src1.
	OpBranch
	// OpCASA is the SPARC compare-and-swap (casa): an atomic load+store to
	// Addr. Under TSO it is a serializing instruction: the pipeline and
	// the store buffer/queue must drain before it executes.
	OpCASA
	// OpMembar is the SPARC membar barrier. Serializing under TSO like
	// OpCASA but with no memory access of its own.
	OpMembar
	// OpLoadLocked is the PowerPC lwarx: a load that begins a
	// load-locked/store-conditional pair.
	OpLoadLocked
	// OpStoreCond is the PowerPC stwcx: the store-conditional that
	// completes a lwarx/stwcx pair.
	OpStoreCond
	// OpISync is the PowerPC isync barrier: requires the pipeline to
	// drain (all earlier instructions retired) but, crucially for the
	// paper, does NOT require the store buffer/queue to drain.
	OpISync
	// OpLWSync is the PowerPC lwsync barrier: orders stores across the
	// barrier (commits of later stores wait for commits of earlier ones)
	// without stalling execution.
	OpLWSync

	numOps
)

// NumOps is the number of distinct instruction classes.
const NumOps = int(numOps)

var opNames = [...]string{
	OpALU:        "alu",
	OpLoad:       "load",
	OpStore:      "store",
	OpBranch:     "branch",
	OpCASA:       "casa",
	OpMembar:     "membar",
	OpLoadLocked: "lwarx",
	OpStoreCond:  "stwcx",
	OpISync:      "isync",
	OpLWSync:     "lwsync",
}

// String returns the conventional mnemonic for the instruction class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined instruction class.
func (o Op) Valid() bool { return o < numOps }

// IsLoad reports whether the instruction reads memory into a register.
// casa performs a load as part of its atomic exchange; lwarx is a load.
func (o Op) IsLoad() bool {
	return o == OpLoad || o == OpCASA || o == OpLoadLocked
}

// IsStore reports whether the instruction writes memory.
// casa performs a store as part of its atomic exchange; stwcx is a store.
func (o Op) IsStore() bool {
	return o == OpStore || o == OpCASA || o == OpStoreCond
}

// IsMem reports whether the instruction accesses data memory at all.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() }

// IsBarrier reports whether the instruction is a pure ordering barrier
// with no data memory access (membar, isync, lwsync).
func (o Op) IsBarrier() bool {
	return o == OpMembar || o == OpISync || o == OpLWSync
}

// Flags carries workload-generator ground truth and lock-detector output
// attached to a dynamic instruction.
type Flags uint8

const (
	// FlagLockAcquire marks the serializing instruction that acquires a
	// critical-section lock (casa under PC; the stwcx of a
	// lwarx/stwcx/isync sequence under WC).
	FlagLockAcquire Flags = 1 << iota
	// FlagLockRelease marks the store that releases a critical-section
	// lock.
	FlagLockRelease
	// FlagShared marks a memory access to data shared across chips; such
	// lines are subject to cross-chip coherence invalidations and limit
	// SMAC effectiveness.
	FlagShared
	// FlagMispredict marks a branch that the (modelled) predictor
	// mispredicts. A mispredicted branch dependent on a missing load is a
	// window termination condition.
	FlagMispredict
	// FlagTaken records a branch's generated direction. Nothing reads
	// it; it stays because the generated stream (and the trace bytes
	// pinned by sha256) carries it.
	FlagTaken
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// RegCount is the size of the architectural integer register file visible
// to the dependence tracker. Register 0 is hardwired to zero (always
// ready), matching SPARC %g0.
const RegCount = 64

// Reg identifies an architectural register. Reg 0 is the zero register.
type Reg uint8

// Inst is one dynamic instruction from the trace.
//
// PC is the instruction's own address (used for the L1I/L2 instruction
// stream); Addr is the effective address of a memory access. Dst is the
// destination register (0 for none); Src1 and Src2 are source registers
// (0 means no dependence). For stores, Src1 is the data register and Src2
// the address base; for branches Src1 is the condition source.
type Inst struct {
	PC    uint64
	Addr  uint64
	Op    Op
	Size  uint8 // memory access size in bytes (1..64)
	Dst   Reg
	Src1  Reg
	Src2  Reg
	Flags Flags
}

// Serializing reports whether the instruction is serializing under the
// given in-order-store-commit regime. Under processor consistency (TSO),
// casa and membar serialize: the pipeline must drain AND all earlier
// stores must commit before they execute. Under weak consistency, isync
// requires only a pipeline drain and lwsync only orders commits, so the
// store queue need not drain — the distinction at the heart of the
// paper's PC-vs-WC gap.
func (in Inst) Serializing() bool {
	switch in.Op {
	case OpCASA, OpMembar, OpISync:
		return true
	default:
		// lwsync deliberately does NOT serialize: it orders store
		// commits without draining anything (§3.3.4).
		return false
	}
}

// String renders the instruction compactly for debugging and golden
// tests.
func (in Inst) String() string {
	switch {
	case in.Op.IsMem():
		return fmt.Sprintf("%s@%#x[%d] pc=%#x d=r%d s=r%d,r%d f=%02x",
			in.Op, in.Addr, in.Size, in.PC, in.Dst, in.Src1, in.Src2, uint8(in.Flags))
	default:
		return fmt.Sprintf("%s pc=%#x d=r%d s=r%d,r%d f=%02x",
			in.Op, in.PC, in.Dst, in.Src1, in.Src2, uint8(in.Flags))
	}
}
