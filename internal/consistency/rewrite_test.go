package consistency

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"storemlp/internal/isa"
	"storemlp/internal/trace"
	"storemlp/internal/workload"
)

// refWC, refSLE and refTM are the three per-instruction lock rules,
// written out one rule per stage as the paper states them. reference
// applies them in sequence (WC expansion, then SLE, then TM) to every
// instruction; Rewrite must produce the same stream in one pass.
func refWC(in isa.Inst) []isa.Inst {
	switch {
	case in.Op == isa.OpCASA && in.Flags.Has(isa.FlagLockAcquire):
		ll := in
		ll.Op = isa.OpLoadLocked
		sc := in
		sc.Op = isa.OpStoreCond
		sc.PC += 4
		sc.Dst = 0
		return []isa.Inst{ll, sc, {Op: isa.OpISync, PC: in.PC + 8, Flags: in.Flags}}
	case in.Op == isa.OpStore && in.Flags.Has(isa.FlagLockRelease):
		rel := in
		rel.PC += 4
		return []isa.Inst{{Op: isa.OpLWSync, PC: in.PC, Flags: in.Flags}, rel}
	case in.Op == isa.OpMembar:
		in.Op = isa.OpLWSync
	}
	return []isa.Inst{in}
}

func refSLE(in isa.Inst) (isa.Inst, bool) {
	acq, rel := in.Flags.Has(isa.FlagLockAcquire), in.Flags.Has(isa.FlagLockRelease)
	switch {
	case (in.Op == isa.OpCASA || in.Op == isa.OpLoadLocked) && acq:
		in.Op = isa.OpLoad
	case (in.Op == isa.OpStoreCond || in.Op == isa.OpISync) && acq:
		return in, false
	case (in.Op == isa.OpStore || in.Op == isa.OpLWSync) && rel:
		return in, false
	}
	return in, true
}

func refTM(in isa.Inst) (isa.Inst, bool) {
	acq, rel := in.Flags.Has(isa.FlagLockAcquire), in.Flags.Has(isa.FlagLockRelease)
	switch {
	case acq && (in.Op == isa.OpCASA || in.Op == isa.OpLoadLocked ||
		in.Op == isa.OpStoreCond || in.Op == isa.OpISync):
		return in, false
	case rel && (in.Op == isa.OpStore || in.Op == isa.OpLWSync):
		return in, false
	}
	return in, true
}

func reference(insts []isa.Inst, m Model, sle, tm bool) []isa.Inst {
	out := []isa.Inst{}
	for _, in := range insts {
		stage := []isa.Inst{in}
		if m == WC {
			stage = refWC(in)
		}
		for _, x := range stage {
			keep := true
			if sle {
				x, keep = refSLE(x)
			}
			if keep && tm {
				x, keep = refTM(x)
			}
			if keep {
				out = append(out, x)
			}
		}
	}
	return out
}

// dribble is an input source that hands over at most `most` instructions
// per call, so Rewrite's input pull sees short reads.
type dribble struct {
	insts []isa.Inst
	most  int
}

func (d *dribble) ReadBatch(dst []isa.Inst) int {
	if len(dst) > d.most {
		dst = dst[:d.most]
	}
	n := copy(dst, d.insts)
	d.insts = d.insts[n:]
	return n
}

// drain pulls src dry through ReadBatch in blocks of batch
// instructions, failing if a read overruns its block or the stream
// restarts after its end.
func drain(t testing.TB, src trace.Source, batch int) []isa.Inst {
	out := []isa.Inst{}
	buf := make([]isa.Inst, batch)
	for {
		k := src.ReadBatch(buf)
		if k > batch {
			t.Fatalf("ReadBatch wrote %d into a %d-instruction block", k, batch)
		}
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	if k := src.ReadBatch(buf); k != 0 {
		t.Fatalf("ReadBatch returned %d after the end of the stream", k)
	}
	return out
}

type mode struct {
	m       Model
	sle, tm bool
}

func (md mode) String() string {
	s := md.m.String()
	if md.sle {
		s += "+SLE"
	}
	if md.tm {
		s += "+TM"
	}
	return s
}

// modes covers both models with no lock optimization, SLE and TM, and
// the SLE+TM stack that the machine configuration rejects but whose
// stage-by-stage meaning is still defined.
func modes() []mode {
	var out []mode
	for _, m := range []Model{PC, WC} {
		for _, o := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			out = append(out, mode{m, o[0], o[1]})
		}
	}
	return out
}

// batchLens are the consumer block sizes: single instructions, blocks
// smaller than one three-way expansion, and the stage's own 4096
// (plus one less), so expansions straddle block ends.
var batchLens = []int{1, 2, 3, 5, 4095, 4096}

// randomInsts draws n instructions biased toward the lock idioms: every
// op (plus one undefined op), random lock flags on any of them, and a
// small address and PC range.
func randomInsts(rng *rand.Rand, n int) []isa.Inst {
	lockOps := []isa.Op{isa.OpCASA, isa.OpStore, isa.OpMembar, isa.OpLoadLocked,
		isa.OpStoreCond, isa.OpISync, isa.OpLWSync}
	out := make([]isa.Inst, n)
	for i := range out {
		op := isa.Op(rng.Intn(isa.NumOps + 1))
		if rng.Intn(2) == 0 {
			op = lockOps[rng.Intn(len(lockOps))]
		}
		out[i] = isa.Inst{
			Op:    op,
			PC:    uint64(rng.Intn(1 << 12)),
			Addr:  uint64(rng.Intn(1 << 10)),
			Size:  8,
			Dst:   isa.Reg(rng.Intn(isa.RegCount)),
			Src1:  isa.Reg(rng.Intn(isa.RegCount)),
			Flags: isa.Flags(rng.Intn(1 << 5)),
		}
	}
	return out
}

// checkRewrite compares Rewrite over in with the stage-by-stage
// reference in every mode, at every consumer block size, with full and
// short input reads.
func checkRewrite(t *testing.T, name string, in []isa.Inst) {
	for _, md := range modes() {
		want := reference(in, md.m, md.sle, md.tm)
		for _, batch := range batchLens {
			for _, most := range []int{len(in) + 1, 7} {
				src := Rewrite(&dribble{insts: in, most: most}, md.m, md.sle, md.tm)
				got := drain(t, src, batch)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v batch %d input reads %d: %s", name, md, batch, most, firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(got, want []isa.Inst) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("inst %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d instructions, want %d", len(got), len(want))
}

// TestRewriteMatchesReference: the one-pass rewrite equals the three
// rules applied in sequence on every workload's generated stream (with
// generator flags and with DetectLocks flags) and on random sequences.
func TestRewriteMatchesReference(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 2_000
	}
	for _, w := range workload.All(1) {
		gen := trace.Collect(trace.Limit(workload.NewGenerator(w), int64(n)))
		checkRewrite(t, w.Name, gen.Insts)
		gen.Reset()
		checkRewrite(t, w.Name+"/detected", trace.Collect(DetectLocks(gen)).Insts)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		checkRewrite(t, fmt.Sprintf("random#%d", i), randomInsts(rng, 500))
	}
}

// TestRewritePCIsIdentity: with PC and no lock optimization there is
// nothing to rewrite, so Rewrite hands back its input source.
func TestRewritePCIsIdentity(t *testing.T) {
	src := trace.NewSlice(criticalSection(0x5000))
	if got := Rewrite(src, PC, false, false); got != trace.Source(src) {
		t.Errorf("Rewrite(PC) = %T, want the input source", got)
	}
}

// FuzzRewrite decodes arbitrary bytes into a mode, a consumer block
// size, an input read size and an instruction sequence (any op byte,
// any flag byte), and requires Rewrite to match the reference.
func FuzzRewrite(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x00, 4, 1, 0x10, 0x50, 2, 2, 0x14, 0x50, 0, 0, 0x18, 0x00})
	f.Add([]byte{0x03, 0x02, 0x01, 4, 3, 0x10, 0x50, 5, 2, 0x14, 0x00, 2, 3, 0x18, 0x50})
	f.Add([]byte{0x05, 0x04, 0x06, 6, 1, 0x10, 0x50, 7, 1, 0x14, 0x50, 9, 2, 0x18, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		md := mode{m: Model(data[0] & 1), sle: data[0]&2 != 0, tm: data[0]&4 != 0}
		batch := 1 + int(data[1]%8)
		most := 1 + int(data[2]%8)
		var in []isa.Inst
		for b := data[3:]; len(b) >= 4; b = b[4:] {
			in = append(in, isa.Inst{
				Op:    isa.Op(int(b[0]) % (isa.NumOps + 1)),
				Flags: isa.Flags(b[1]),
				PC:    uint64(b[2]) * 4,
				Addr:  uint64(b[3]),
				Dst:   isa.Reg(b[2] % isa.RegCount),
			})
		}
		got := drain(t, Rewrite(&dribble{insts: in, most: most}, md.m, md.sle, md.tm), batch)
		if want := reference(in, md.m, md.sle, md.tm); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v batch %d input reads %d: %s", md, batch, most, firstDiff(got, want))
		}
	})
}
