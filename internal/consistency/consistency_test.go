package consistency

import (
	"testing"

	"storemlp/internal/isa"
	"storemlp/internal/trace"
)

func ops(src trace.Source) []isa.Op {
	var out []isa.Op
	for _, in := range trace.Collect(src).Insts {
		out = append(out, in.Op)
	}
	return out
}

func TestModelBasics(t *testing.T) {
	if PC.String() != "PC" || WC.String() != "WC" {
		t.Error("model strings wrong")
	}
	if !PC.Valid() || !WC.Valid() || Model(9).Valid() {
		t.Error("validity wrong")
	}
	if !PC.InOrderCommit() || WC.InOrderCommit() {
		t.Error("InOrderCommit wrong")
	}
	if !PC.DrainsStoresOnSerialize() || WC.DrainsStoresOnSerialize() {
		t.Error("DrainsStoresOnSerialize wrong")
	}
	if Validate(PC) != nil || Validate(Model(7)) == nil {
		t.Error("Validate wrong")
	}
	for name, want := range map[string]Model{"pc": PC, "TSO": PC, "wc": WC, "PowerPC": WC} {
		if got, err := ParseModel(name); got != want || err != nil {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseModel("sc"); err == nil {
		t.Error("ParseModel accepted an unknown model")
	}
}

// criticalSection builds the paper's Example 5 pattern: casa acquire,
// body, store release — with ground-truth flags stripped.
func criticalSection(lock uint64) []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpStore, Addr: 0x9000, Size: 8, PC: 0x100},
		{Op: isa.OpCASA, Addr: lock, Size: 8, PC: 0x104, Dst: 1},
		{Op: isa.OpLoad, Addr: 0xA000, Size: 8, PC: 0x108, Dst: 2},
		{Op: isa.OpStore, Addr: 0xA008, Size: 8, PC: 0x10c},
		{Op: isa.OpStore, Addr: lock, Size: 8, PC: 0x110}, // release
		{Op: isa.OpLoad, Addr: 0xB000, Size: 8, PC: 0x114, Dst: 3},
	}
}

func TestDetectLocks(t *testing.T) {
	got := trace.Collect(DetectLocks(trace.NewSlice(criticalSection(0x5000))))
	if !got.Insts[1].Flags.Has(isa.FlagLockAcquire) {
		t.Error("casa not marked acquire")
	}
	if !got.Insts[4].Flags.Has(isa.FlagLockRelease) {
		t.Error("release store not marked")
	}
	// Non-lock stores untouched.
	for _, i := range []int{0, 3} {
		if got.Insts[i].Flags.Has(isa.FlagLockRelease) || got.Insts[i].Flags.Has(isa.FlagLockAcquire) {
			t.Errorf("inst %d spuriously marked", i)
		}
	}
	// Only the FIRST store to the lock address after casa is the release.
	extra := append(criticalSection(0x5000), isa.Inst{Op: isa.OpStore, Addr: 0x5000, PC: 0x118, Size: 8})
	got = trace.Collect(DetectLocks(trace.NewSlice(extra)))
	if got.Insts[6].Flags.Has(isa.FlagLockRelease) {
		t.Error("second store to lock address must not be a release")
	}
}

func TestDetectLocksOverwritesStaleFlags(t *testing.T) {
	in := []isa.Inst{{Op: isa.OpLoad, Addr: 1, Flags: isa.FlagLockAcquire | isa.FlagLockRelease}}
	got := trace.Collect(DetectLocks(trace.NewSlice(in)))
	if got.Insts[0].Flags.Has(isa.FlagLockAcquire) || got.Insts[0].Flags.Has(isa.FlagLockRelease) {
		t.Error("stale flags must be cleared")
	}
}

func TestRewriteWC(t *testing.T) {
	pc := trace.Collect(DetectLocks(trace.NewSlice(criticalSection(0x5000))))
	pc.Reset()
	got := trace.Collect(RewriteWC(pc))
	want := []isa.Op{
		isa.OpStore,                                    // plain store
		isa.OpLoadLocked, isa.OpStoreCond, isa.OpISync, // acquire
		isa.OpLoad, isa.OpStore, // body
		isa.OpLWSync, isa.OpStore, // release
		isa.OpLoad, // after
	}
	if len(got.Insts) != len(want) {
		t.Fatalf("rewrote to %d insts, want %d: %v", got.Len(), len(want), ops(trace.NewSlice(got.Insts)))
	}
	for i, op := range want {
		if got.Insts[i].Op != op {
			t.Errorf("inst %d = %v, want %v", i, got.Insts[i].Op, op)
		}
	}
	// The lwarx/stwcx keep the lock address; the release store keeps its
	// address and flag.
	if got.Insts[1].Addr != 0x5000 || got.Insts[2].Addr != 0x5000 {
		t.Error("acquire pair lost lock address")
	}
	if !got.Insts[7].Flags.Has(isa.FlagLockRelease) {
		t.Error("release store lost its flag")
	}
	if !got.Insts[6].Flags.Has(isa.FlagLockRelease) {
		t.Error("lwsync must carry the release flag for SLE")
	}
}

func TestRewriteWCMembar(t *testing.T) {
	src := trace.NewSlice([]isa.Inst{{Op: isa.OpMembar, PC: 4}})
	got := trace.Collect(RewriteWC(src))
	if got.Len() != 1 || got.Insts[0].Op != isa.OpLWSync {
		t.Errorf("membar rewrite = %v", ops(trace.NewSlice(got.Insts)))
	}
}

func TestElideLocksPC(t *testing.T) {
	pc := trace.Collect(DetectLocks(trace.NewSlice(criticalSection(0x5000))))
	pc.Reset()
	got := trace.Collect(ElideLocks(pc))
	want := []isa.Op{isa.OpStore, isa.OpLoad, isa.OpLoad, isa.OpStore, isa.OpLoad}
	if len(got.Insts) != len(want) {
		t.Fatalf("elided to %d insts, want %d", got.Len(), len(want))
	}
	for i, op := range want {
		if got.Insts[i].Op != op {
			t.Errorf("inst %d = %v, want %v", i, got.Insts[i].Op, op)
		}
	}
	// The acquire became a plain load of the lock word.
	if got.Insts[1].Addr != 0x5000 {
		t.Error("elided acquire lost lock address")
	}
}

func TestElideLocksWC(t *testing.T) {
	pc := trace.Collect(DetectLocks(trace.NewSlice(criticalSection(0x5000))))
	pc.Reset()
	wc := trace.Collect(RewriteWC(pc))
	wc.Reset()
	got := trace.Collect(ElideLocks(wc))
	// lwarx->load, stwcx/isync dropped, lwsync+release dropped.
	want := []isa.Op{isa.OpStore, isa.OpLoad, isa.OpLoad, isa.OpStore, isa.OpLoad}
	if len(got.Insts) != len(want) {
		t.Fatalf("elided WC to %d insts, want %d: %v", got.Len(), len(want), ops(trace.NewSlice(got.Insts)))
	}
	for i, op := range want {
		if got.Insts[i].Op != op {
			t.Errorf("inst %d = %v, want %v", i, got.Insts[i].Op, op)
		}
	}
}

func TestElideLeavesNonLockSerializersAlone(t *testing.T) {
	src := trace.NewSlice([]isa.Inst{
		{Op: isa.OpMembar},
		{Op: isa.OpCASA, Addr: 0x10}, // not flagged: e.g. atomic counter
	})
	got := trace.Collect(ElideLocks(src))
	if got.Len() != 2 || got.Insts[0].Op != isa.OpMembar || got.Insts[1].Op != isa.OpCASA {
		t.Error("unflagged serializers must survive elision")
	}
}

func TestApplyTMPC(t *testing.T) {
	pc := trace.Collect(DetectLocks(trace.NewSlice(criticalSection(0x5000))))
	pc.Reset()
	got := trace.Collect(ApplyTM(pc))
	// TM removes the acquire AND the release entirely — unlike SLE, the
	// lock word is never even loaded.
	want := []isa.Op{isa.OpStore, isa.OpLoad, isa.OpStore, isa.OpLoad}
	if len(got.Insts) != len(want) {
		t.Fatalf("TM produced %d insts, want %d: %v", got.Len(), len(want), ops(trace.NewSlice(got.Insts)))
	}
	for i, op := range want {
		if got.Insts[i].Op != op {
			t.Errorf("inst %d = %v, want %v", i, got.Insts[i].Op, op)
		}
	}
	for _, in := range got.Insts {
		if in.Addr == 0x5000 {
			t.Error("TM must not access the lock word")
		}
	}
}

func TestApplyTMWC(t *testing.T) {
	pc := trace.Collect(DetectLocks(trace.NewSlice(criticalSection(0x5000))))
	pc.Reset()
	wc := trace.Collect(RewriteWC(pc))
	wc.Reset()
	got := trace.Collect(ApplyTM(wc))
	want := []isa.Op{isa.OpStore, isa.OpLoad, isa.OpStore, isa.OpLoad}
	if len(got.Insts) != len(want) {
		t.Fatalf("TM on WC produced %d insts, want %d: %v",
			got.Len(), len(want), ops(trace.NewSlice(got.Insts)))
	}
}

func TestApplyTMLeavesNonLockAlone(t *testing.T) {
	src := trace.NewSlice([]isa.Inst{
		{Op: isa.OpMembar},
		{Op: isa.OpCASA, Addr: 0x10},
		{Op: isa.OpStore, Addr: 0x20, Size: 8},
	})
	got := trace.Collect(ApplyTM(src))
	if got.Len() != 3 {
		t.Errorf("unflagged instructions must survive TM: %d", got.Len())
	}
}

// Detector vs generator ground truth: strip flags, re-detect, compare.
func TestDetectorMatchesGroundTruth(t *testing.T) {
	var truth []isa.Inst
	lockA, lockB := uint64(0x5000), uint64(0x6000)
	emit := func(in isa.Inst) { truth = append(truth, in) }
	for i := 0; i < 50; i++ {
		emit(isa.Inst{Op: isa.OpALU, PC: uint64(i * 40)})
		lock := lockA
		if i%2 == 1 {
			lock = lockB
		}
		emit(isa.Inst{Op: isa.OpCASA, Addr: lock, Size: 8, Flags: isa.FlagLockAcquire})
		emit(isa.Inst{Op: isa.OpStore, Addr: uint64(0x8000 + i*64), Size: 8})
		emit(isa.Inst{Op: isa.OpStore, Addr: lock, Size: 8, Flags: isa.FlagLockRelease})
	}
	stripped := make([]isa.Inst, len(truth))
	for i, in := range truth {
		in.Flags = 0
		stripped[i] = in
	}
	got := trace.Collect(DetectLocks(trace.NewSlice(stripped)))
	for i := range truth {
		wantAcq := truth[i].Flags.Has(isa.FlagLockAcquire)
		wantRel := truth[i].Flags.Has(isa.FlagLockRelease)
		if got.Insts[i].Flags.Has(isa.FlagLockAcquire) != wantAcq {
			t.Fatalf("inst %d acquire mismatch", i)
		}
		if got.Insts[i].Flags.Has(isa.FlagLockRelease) != wantRel {
			t.Fatalf("inst %d release mismatch", i)
		}
	}
}
