package colv1

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"storemlp/internal/isa"
)

// genInsts builds a deterministic pseudo-random instruction stream
// that exercises every column encoding: sequential and jumping PCs,
// clustered and scattered addresses, long and singleton opcode runs.
func genInsts(n int, seed int64) []isa.Inst {
	rng := rand.New(rand.NewSource(seed))
	out := make([]isa.Inst, n)
	pc := uint64(0x10_0000)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			pc -= uint64(rng.Intn(4096)) * 4 // backward branch target
		case 1:
			pc += uint64(rng.Intn(1 << 20)) // far jump
		default:
			pc += 4
		}
		op := isa.OpALU
		switch r := rng.Intn(100); {
		case r < 20:
			op = isa.OpLoad
		case r < 35:
			op = isa.OpStore
		case r < 45:
			op = isa.OpBranch
		case r < 47:
			op = isa.Op(rng.Intn(isa.NumOps))
		}
		out[i] = isa.Inst{
			PC:    pc,
			Addr:  uint64(rng.Intn(1<<30)) << uint(rng.Intn(3)),
			Op:    op,
			Size:  byte(1 << uint(rng.Intn(7))),
			Flags: isa.Flags(rng.Intn(8)),
			Dst:   isa.Reg(rng.Intn(isa.RegCount)),
			Src1:  isa.Reg(rng.Intn(isa.RegCount)),
			Src2:  isa.Reg(rng.Intn(isa.RegCount)),
		}
	}
	return out
}

// encode writes insts through a Writer (in randomly sized batches, a
// quarter of them single instructions, to exercise the pending-block
// boundary logic) and returns the file bytes.
func encode(t testing.TB, insts []isa.Inst) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for pos := 0; pos < len(insts); {
		n := 1 + rng.Intn(3000)
		if pos+n > len(insts) {
			n = len(insts) - pos
		}
		if rng.Intn(4) == 0 {
			for i := pos; i < pos+n; i++ {
				if err := cw.WriteBatch(insts[i : i+1]); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := cw.WriteBatch(insts[pos : pos+n]); err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	if got := cw.Count(); got != int64(len(insts)) {
		t.Fatalf("writer Count = %d, want %d", got, len(insts))
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil { // Close is idempotent
		t.Fatalf("second Close: %v", err)
	}
	return buf.Bytes()
}

// writeTemp writes data to a fresh temporary file and returns its path.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.colv1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// drain reads everything from cr in the given batch size.
func drain(t testing.TB, cr *Reader, batchLen int) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	buf := make([]isa.Inst, batchLen)
	for {
		k := cr.ReadBatch(buf)
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	if cr.Err() != nil {
		t.Fatalf("drain: %v", cr.Err())
	}
	return out
}

// TestRoundTripStreamAndBytes decodes traces of every block shape both
// from an in-memory io.Reader and from a file opened with Open.
func TestRoundTripStreamAndBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultBlockLen - 1, DefaultBlockLen, DefaultBlockLen + 1, 3*DefaultBlockLen + 100} {
		insts := genInsts(n, int64(n)+1)
		data := encode(t, insts)
		path := writeTemp(t, data)

		for _, mode := range []string{"stream", "file"} {
			var cr *Reader
			var err error
			if mode == "stream" {
				cr, err = NewReader(bytes.NewReader(data))
			} else {
				var cf *File
				cf, err = Open(path)
				if err == nil {
					t.Cleanup(func() { cf.Close() })
					cr = cf.Reader
				}
			}
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, mode, err)
			}
			got := drain(t, cr, DefaultBlockLen)
			if len(got) != n {
				t.Fatalf("n=%d %s: decoded %d", n, mode, len(got))
			}
			for i := range got {
				if got[i] != insts[i] {
					t.Fatalf("n=%d %s: inst %d: got %v want %v", n, mode, i, got[i], insts[i])
				}
			}
			if cr.SizeHint() != 0 {
				t.Fatalf("n=%d %s: SizeHint after the footer = %d, want 0", n, mode, cr.SizeHint())
			}
		}
	}
}

func TestRoundTripOddBatchSizes(t *testing.T) {
	insts := genInsts(2*DefaultBlockLen+17, 9)
	data := encode(t, insts)
	for _, batch := range []int{1, 3, 100, DefaultBlockLen - 1, DefaultBlockLen + 1, 5 * DefaultBlockLen} {
		cr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, cr, batch)
		if len(got) != len(insts) {
			t.Fatalf("batch=%d: decoded %d of %d", batch, len(got), len(insts))
		}
		for i := range got {
			if got[i] != insts[i] {
				t.Fatalf("batch=%d: inst %d mismatch", batch, i)
			}
		}
	}
}

// TestSizeHint: a file opened with Open knows its length before the
// first read and counts down as it decodes; a trace streamed from an
// io.Reader cannot know it until the footer.
func TestSizeHint(t *testing.T) {
	insts := genInsts(DefaultBlockLen+100, 5)
	data := encode(t, insts)

	cf, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if got := cf.SizeHint(); got != int64(len(insts)) {
		t.Fatalf("file SizeHint = %d, want %d", got, len(insts))
	}
	buf := make([]isa.Inst, 100)
	cf.ReadBatch(buf)
	if got := cf.SizeHint(); got != int64(len(insts)-100) {
		t.Fatalf("file SizeHint after 100 = %d", got)
	}

	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.SizeHint(); got >= 0 {
		t.Fatalf("stream SizeHint before footer = %d, want negative", got)
	}
}

// openAndDrain writes data to path, opens it with Open and drains it.
// It returns the instructions decoded and Open's error or, when Open
// succeeds, the reader's terminal error.
func openAndDrain(t testing.TB, path string, data []byte) (int, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cf, err := Open(path)
	if err != nil {
		return 0, err
	}
	defer cf.Close()
	n := drainUnchecked(cf.Reader, DefaultBlockLen)
	return n, cf.Err()
}

// TestTruncationWalk feeds strict prefixes of a valid trace to the
// streaming reader and to Open: none may panic, and every one must
// report an error after emitting only valid instructions. The stream
// sees every prefix; Open, which reads the end of the file before
// streaming, sees every prefix that cuts the footer or trailer and a
// sample of the rest.
func TestTruncationWalk(t *testing.T) {
	insts := genInsts(DefaultBlockLen+300, 21)
	data := encode(t, insts)
	path := filepath.Join(t.TempDir(), "cut.colv1")
	step := 1
	if testing.Short() {
		step = 97
	}
	buf := make([]isa.Inst, 512)
	for cut := 0; cut < len(data); cut += step {
		prefix := data[:cut]

		if cut%97 == 0 || cut > len(data)-128 {
			if n, err := openAndDrain(t, path, prefix); err == nil {
				t.Fatalf("cut=%d: Open accepted a truncated trace (%d insts)", cut, n)
			}
		}

		cr, err := NewReader(bytes.NewReader(prefix))
		if err != nil {
			continue
		}
		for {
			k := cr.ReadBatch(buf)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				if !buf[i].Op.Valid() {
					t.Fatalf("cut=%d: invalid opcode surfaced", cut)
				}
			}
		}
		if cr.Err() == nil {
			t.Fatalf("cut=%d: streaming reader reported a clean end on a truncated trace", cut)
		}
		if !errors.Is(cr.Err(), ErrTruncated) && !errors.Is(cr.Err(), ErrCorrupt) {
			t.Fatalf("cut=%d: error %v is neither ErrTruncated nor ErrCorrupt", cut, cr.Err())
		}
	}
}

func TestZeroLengthAndGarbageInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("SMLC"),
		[]byte("SMLT this is the legacy format"),
		[]byte("garbage that is long enough to not be a header at all........."),
		bytes.Repeat([]byte{0}, 64),
	}
	path := filepath.Join(t.TempDir(), "garbage")
	for i, data := range cases {
		if n, err := openAndDrain(t, path, data); err == nil {
			t.Errorf("case %d: Open accepted garbage (%d insts)", i, n)
		}
		if cr, err := NewReader(bytes.NewReader(data)); err == nil {
			if n := drainUnchecked(cr, 64); n != 0 || cr.Err() == nil {
				t.Errorf("case %d: streaming reader yielded %d insts, err=%v", i, n, cr.Err())
			}
		}
	}
}

func drainUnchecked(cr *Reader, batch int) int {
	buf := make([]isa.Inst, batch)
	n := 0
	for {
		k := cr.ReadBatch(buf)
		if k == 0 {
			return n
		}
		n += k
	}
}

// corrupt returns a copy of data with one little-endian u32 overwritten
// at off.
func corruptU32(data []byte, off int, v uint32) []byte {
	out := bytes.Clone(data)
	out[off] = byte(v)
	out[off+1] = byte(v >> 8)
	out[off+2] = byte(v >> 16)
	out[off+3] = byte(v >> 24)
	return out
}

// TestTargetedCorruption: each structural lie in a trace is caught by
// the streaming reader and by Open, either up front or by the time the
// stream ends.
func TestTargetedCorruption(t *testing.T) {
	insts := genInsts(2*DefaultBlockLen+10, 31)
	data := encode(t, insts)
	path := filepath.Join(t.TempDir(), "mutated.colv1")

	check := func(name string, mutated []byte) {
		t.Helper()
		if _, err := openAndDrain(t, path, mutated); err == nil {
			t.Errorf("%s: Open accepted the corruption", name)
		}
		if cr, err := NewReader(bytes.NewReader(mutated)); err == nil {
			if drainUnchecked(cr, DefaultBlockLen); cr.Err() == nil {
				t.Errorf("%s: streaming reader accepted the corruption", name)
			}
		}
	}

	// Block 0 starts right after the header.
	check("nInsts zero", corruptU32(data, headerSize+4, 0))
	check("nInsts over blockLen", corruptU32(data, headerSize+4, DefaultBlockLen+1))
	check("payloadLen tiny", corruptU32(data, headerSize, 1))
	check("payloadLen huge", corruptU32(data, headerSize, 1<<30))
	check("column length overrun", corruptU32(data, headerSize+8, 1<<29))
	// Shifting a column length by one makes the cursors misalign; the
	// lockstep decode or the drained() check must catch it.
	check("column length off by one", corruptU32(data, headerSize+8,
		binary32(data[headerSize+8:])+1))
	// Invalid opcode inside the op column: op column starts after the
	// pc and addr columns.
	{
		pcLen := int(binary32(data[headerSize+8:]))
		adLen := int(binary32(data[headerSize+12:]))
		opOff := headerSize + 4 + payloadFixed + pcLen + adLen
		mutated := bytes.Clone(data)
		mutated[opOff] = 0xEE // way out of the opcode range
		check("invalid opcode", mutated)
	}
	// Footer corruption: locate the footer through the trailer.
	trailerOff := len(data) - trailerSize
	footOff := int(binary64(data[trailerOff:]))
	check("footer total wrong", corruptU32(data, footOff+4, uint32(len(insts)+1)))
	check("footer nBlocks wrong", corruptU32(data, footOff+12, 7))
	check("footer marker nonzero", corruptU32(data, footOff, 1))
	// Trailer pointing into a block.
	{
		mutated := bytes.Clone(data)
		mutated[trailerOff] = byte(headerSize + 2)
		for i := 1; i < 8; i++ {
			mutated[trailerOff+i] = 0
		}
		check("trailer pointing into a block", mutated)
	}
	// Bytes appended after the trailer.
	check("trailing bytes", append(bytes.Clone(data), "garbage"...))
	// Seek index entry tampered: second block's startInst.
	if footOff+16+16+8 < trailerOff {
		check("seek index startInst wrong", corruptU32(data, footOff+16+16+8, 9))
	}
}

func binary32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func binary64(b []byte) uint64 {
	return uint64(binary32(b)) | uint64(binary32(b[4:]))<<32
}

// TestOpenMmap opens a trace file with Open: it decodes exactly, Close
// is idempotent and fails later reads, and a missing or empty file is
// an error.
func TestOpenMmap(t *testing.T) {
	insts := genInsts(DefaultBlockLen+500, 77)
	path := writeTemp(t, encode(t, insts))
	cf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cf.Reader, DefaultBlockLen)
	if len(got) != len(insts) {
		t.Fatalf("decoded %d of %d", len(got), len(insts))
	}
	for i := range got {
		if got[i] != insts[i] {
			t.Fatalf("inst %d mismatch", i)
		}
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if cf.Err() == nil {
		t.Fatal("reader reports no error after Close")
	}

	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err == nil {
		t.Fatal("Open of an empty file succeeded")
	}
}

// TestReadBatchZeroAlloc proves the streaming decode path performs zero
// allocations per block in steady state: once the first block has
// sized the payload buffer and the block log, every further block is
// read into the same buffer and decoded straight into the caller's.
func TestReadBatchZeroAlloc(t *testing.T) {
	const runs = 10
	// The first block, AllocsPerRun's warm-up call and the measured
	// runs each take one block; the block log's initial capacity (64)
	// covers them all.
	insts := genInsts((runs+4)*DefaultBlockLen, 55)
	cr, err := NewReader(bytes.NewReader(encode(t, insts)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]isa.Inst, DefaultBlockLen)
	if cr.ReadBatch(buf) != DefaultBlockLen {
		t.Fatalf("first block: %v", cr.Err())
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if cr.ReadBatch(buf) != DefaultBlockLen {
			t.Fatalf("short block: %v", cr.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state block decode allocated %.2f times per block, want 0", allocs)
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteBatch([]isa.Inst{{}}); err == nil {
		t.Fatal("WriteBatch after Close succeeded")
	}
	if err := cw.WriteBatch(nil); err == nil {
		t.Fatal("empty WriteBatch after Close succeeded")
	}
}
