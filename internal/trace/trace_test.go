package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"storemlp/internal/isa"
	"storemlp/internal/trace/colv1"
)

func mkInst(i int) isa.Inst {
	return isa.Inst{
		PC:   uint64(0x10000 + 4*i),
		Addr: uint64(0x2000 + 8*i),
		Op:   isa.Op(i % isa.NumOps),
		Size: 8,
		Dst:  isa.Reg(i % isa.RegCount),
		Src1: isa.Reg((i + 1) % isa.RegCount),
		Src2: isa.Reg((i + 2) % isa.RegCount),
	}
}

func TestSliceSource(t *testing.T) {
	insts := []isa.Inst{mkInst(0), mkInst(1), mkInst(2)}
	s := NewSlice(insts)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	buf := make([]isa.Inst, 2)
	if k := s.ReadBatch(buf); k != 2 || buf[0] != insts[0] || buf[1] != insts[1] {
		t.Fatalf("first ReadBatch = %d %v, want the first two insts", k, buf[:k])
	}
	if k := s.ReadBatch(buf); k != 1 || buf[0] != insts[2] {
		t.Fatalf("second ReadBatch = %d %v, want the last inst", k, buf[:k])
	}
	if k := s.ReadBatch(buf); k != 0 {
		t.Errorf("ReadBatch after the end = %d, want 0", k)
	}
	s.Reset()
	if k := s.ReadBatch(buf[:1]); k != 1 || buf[0] != insts[0] {
		t.Error("Reset did not rewind")
	}
}

func TestLimit(t *testing.T) {
	s := NewSlice([]isa.Inst{mkInst(0), mkInst(1), mkInst(2), mkInst(3)})
	if n := Collect(Limit(s, 2)).Len(); n != 2 {
		t.Errorf("Limit yielded %d, want 2", n)
	}
	// Limit longer than source just drains it.
	s.Reset()
	if got := Collect(Limit(s, 100)).Len(); got != 4 {
		t.Errorf("over-limit yielded %d, want 4", got)
	}
}

func TestMap(t *testing.T) {
	src := NewSlice([]isa.Inst{mkInst(0), mkInst(1), mkInst(2)})
	// Drop odd-index ops, tag the rest.
	out := Collect(Map(src, func(in isa.Inst) (isa.Inst, bool) {
		if in.Op == isa.Op(1) {
			return isa.Inst{}, false
		}
		in.Flags |= isa.FlagShared
		return in, true
	}))
	if out.Len() != 2 {
		t.Fatalf("Map yielded %d, want 2", out.Len())
	}
	for _, in := range out.Insts {
		if !in.Flags.Has(isa.FlagShared) {
			t.Error("Map did not apply transform")
		}
	}
}

// The codec tests below drive the one on-disk format through this
// package's write path: WriteAll in, colv1's streaming reader out.

func TestCodecRoundTrip(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 5000; i++ { // one full block and a partial one
		insts = append(insts, mkInst(i))
	}
	var buf bytes.Buffer
	n, err := WriteAll(&buf, NewSlice(insts))
	if err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	if n != 5000 {
		t.Fatalf("wrote %d, want 5000", n)
	}
	r, err := colv1.NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got := Collect(r)
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if !reflect.DeepEqual(got.Insts, insts) {
		t.Fatal("round trip mismatch")
	}
}

// TestCodecBadMagic: the streaming reader and OpenFile reject a
// foreign magic, and reject a legacy trace with the error that names
// the remedy.
func TestCodecBadMagic(t *testing.T) {
	garbage := []byte("NOPE" + strings.Repeat(".", 60))
	for name, open := range map[string]func([]byte) error{
		"stream": func(b []byte) error { _, err := colv1.NewReader(bytes.NewReader(b)); return err },
		"file":   func(b []byte) error { return openBytes(t, b) },
	} {
		if err := open(garbage); !errors.Is(err, colv1.ErrBadMagic) || isLegacyErr(err) {
			t.Errorf("%s: garbage err = %v, want plain ErrBadMagic", name, err)
		}
		if err := open(legacyTrace); !isLegacyErr(err) {
			t.Errorf("%s: legacy err = %v, want the legacy-format-removed error", name, err)
		}
	}
}

func TestCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice([]isa.Inst{mkInst(0), mkInst(1)})); err != nil {
		t.Fatal(err)
	}
	// Chop into the trailer: the block decodes, the footer is missing.
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := colv1.NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	Collect(r)
	if !errors.Is(r.Err(), colv1.ErrTruncated) && !errors.Is(r.Err(), colv1.ErrCorrupt) {
		t.Errorf("truncated trace: err = %v, want ErrTruncated or ErrCorrupt", r.Err())
	}
}

func TestCodecInvalidOpcode(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSlice([]isa.Inst{{Op: isa.Op(200)}})); err != nil {
		t.Fatal(err)
	}
	r, err := colv1.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(r); got.Len() != 0 {
		t.Errorf("invalid opcode should end the stream, got %d insts", got.Len())
	}
	if !errors.Is(r.Err(), colv1.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

// Property: the codec round-trips arbitrary valid instructions.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, addrs []uint64, raw []byte) bool {
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(raw) < n {
			n = len(raw)
		}
		insts := make([]isa.Inst, n)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			insts[i] = isa.Inst{
				PC:    pcs[i],
				Addr:  addrs[i],
				Op:    isa.Op(raw[i] % uint8(isa.NumOps)),
				Size:  uint8(1 + rng.Intn(64)),
				Dst:   isa.Reg(rng.Intn(isa.RegCount)),
				Src1:  isa.Reg(rng.Intn(isa.RegCount)),
				Src2:  isa.Reg(rng.Intn(isa.RegCount)),
				Flags: isa.Flags(raw[i] & 0x0f),
			}
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, NewSlice(insts)); err != nil {
			return false
		}
		r, err := colv1.NewReader(&buf)
		if err != nil {
			return false
		}
		got := Collect(r)
		if r.Err() != nil {
			return false
		}
		if len(got.Insts) != n {
			return false
		}
		for i := range insts {
			if got.Insts[i] != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpALU},
		{Op: isa.OpLoad, Flags: isa.FlagShared, Addr: 1, Size: 8},
		{Op: isa.OpStore, Addr: 2, Size: 8},
		{Op: isa.OpCASA, Flags: isa.FlagLockAcquire, Addr: 3, Size: 8},
		{Op: isa.OpStore, Flags: isa.FlagLockRelease, Addr: 3, Size: 8},
		{Op: isa.OpBranch, Flags: isa.FlagMispredict},
	}
	s := Gather(NewSlice(insts))
	if s.Total != 6 {
		t.Errorf("Total = %d", s.Total)
	}
	if s.Loads() != 2 { // load + casa
		t.Errorf("Loads = %d, want 2", s.Loads())
	}
	if s.Stores() != 3 { // 2 stores + casa
		t.Errorf("Stores = %d, want 3", s.Stores())
	}
	if s.LockAcquire != 1 || s.LockRelease != 1 {
		t.Errorf("locks = %d/%d", s.LockAcquire, s.LockRelease)
	}
	if s.SharedMem != 1 {
		t.Errorf("SharedMem = %d", s.SharedMem)
	}
	if s.Mispredicts != 1 {
		t.Errorf("Mispredicts = %d", s.Mispredicts)
	}
	if got := s.Per100(3); got != 50 {
		t.Errorf("Per100(3) = %v, want 50", got)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
	var empty Stats
	if empty.Per100(5) != 0 {
		t.Error("Per100 on empty stats should be 0")
	}
}
