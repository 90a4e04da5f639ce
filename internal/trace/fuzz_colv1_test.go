package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"storemlp/internal/isa"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/workload"
)

// instsFromFuzz deterministically decodes fuzz bytes into a valid
// instruction sequence: 8 bytes per record, opcode clamped into range
// so the write->read round trip is exact.
func instsFromFuzz(data []byte) []isa.Inst {
	var (
		out []isa.Inst
		pc  uint64
	)
	for len(data) >= 8 && len(out) < 4096 {
		rec, rest := data[:8], data[8:]
		data = rest
		// PC moves by a signed-ish delta so the codec's delta encoding
		// sees forward jumps, backward jumps, and wraparound.
		pc += uint64(rec[6]) - 128
		out = append(out, isa.Inst{
			Op:    isa.Op(int(rec[0]) % isa.NumOps),
			Flags: isa.Flags(rec[1]),
			Size:  rec[2],
			Dst:   isa.Reg(rec[3]),
			Src1:  isa.Reg(rec[4]),
			Src2:  isa.Reg(rec[5]),
			PC:    pc,
			Addr:  uint64(rec[7]) << uint(rec[6]%24),
		})
	}
	return out
}

// tempTrace writes data to a fresh temporary file and returns its path.
func tempTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzTraceRoundTrip exercises this package's write path from both
// ends: the fuzz input, decoded as an instruction sequence, must
// survive WriteAll and a read back through Fill exactly; and the input
// behind a legacy "SMLT" magic must be refused by the streaming reader
// and OpenFile with the legacy-format-removed error, never decoded.
func FuzzTraceRoundTrip(f *testing.F) {
	// Corpus seeds: a real generated workload trace (what cmd/tracegen
	// emits), an empty trace, legacy header prefixes, and noise.
	gen := workload.NewGenerator(workload.Database(1))
	var real bytes.Buffer
	if _, err := WriteAll(&real, Limit(gen, 512)); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	var empty bytes.Buffer
	if _, err := WriteAll(&empty, Limit(gen, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("SMLT"))
	f.Add([]byte("SMLT\x01\x00"))
	f.Add([]byte("SMLT\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("not a trace"))
	f.Add(bytes.Repeat([]byte{0x80}, 64)) // unterminated varints

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: fuzz bytes as instructions; WriteAll then a
		// Fill loop at a batch length that straddles block boundaries
		// must reproduce them exactly.
		insts := instsFromFuzz(data)
		var buf bytes.Buffer
		n, err := WriteAll(&buf, NewSlice(insts))
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(insts)) {
			t.Fatalf("WriteAll count %d, want %d", n, len(insts))
		}
		r, err := colv1.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading back own output: %v", err)
		}
		got := make([]isa.Inst, 0, len(insts))
		batch := make([]isa.Inst, 777)
		for {
			k := Fill(r, batch)
			if k == 0 {
				break
			}
			got = append(got, batch[:k]...)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("clean trace ended with error: %v", err)
		}
		if len(got) != len(insts) {
			t.Fatalf("read back %d insts, want %d", len(got), len(insts))
		}
		for i := range insts {
			if got[i] != insts[i] {
				t.Fatalf("record %d: round trip %+v -> %+v", i, insts[i], got[i])
			}
		}

		// Direction 2: fuzz bytes behind a legacy magic; no reader may
		// decode them.
		legacy := append([]byte("SMLT"), data...)
		if _, err := colv1.NewReader(bytes.NewReader(legacy)); !isLegacyErr(err) {
			t.Fatalf("stream reader on a legacy trace: err = %v", err)
		}
		if _, _, err := OpenFile(tempTrace(t, legacy)); !isLegacyErr(err) {
			t.Fatalf("OpenFile on a legacy trace: err = %v", err)
		}
	})
}

// FuzzColumnarRoundTrip fuzzes the colv1 codec on its own: fuzz bytes
// become an instruction sequence that must survive
// encode->decode exactly, and double as a hostile byte stream the
// reader must reject with an error — never a panic — whether it is
// fed from an io.Reader or opened as a file.
func FuzzColumnarRoundTrip(f *testing.F) {
	// Corpus seeds: a real workload trace, an empty trace, adversarial
	// header prefixes, raw varint noise, and a legacy-format header.
	gen := workload.NewGenerator(workload.Database(1))
	var real bytes.Buffer
	if _, err := WriteAll(&real, Limit(gen, 8192)); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	var empty bytes.Buffer
	if _, err := WriteAll(&empty, Limit(gen, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(colv1.Magic))
	f.Add([]byte("SMLC\x01\x00\x00\x10"))
	f.Add([]byte("SMLC\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("not a trace"))
	f.Add(bytes.Repeat([]byte{0x80}, 64)) // unterminated varints
	f.Add(legacyTrace)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: fuzz bytes as instructions; the columnar round
		// trip must be lossless, including partial final blocks.
		insts := instsFromFuzz(data)
		var buf bytes.Buffer
		cw, err := colv1.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteBatch(insts); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if cw.Count() != int64(len(insts)) {
			t.Fatalf("writer count %d, want %d", cw.Count(), len(insts))
		}
		cf, err := colv1.Open(tempTrace(t, buf.Bytes()))
		if err != nil {
			t.Fatalf("reading back own output: %v", err)
		}
		if got := cf.SizeHint(); got != int64(len(insts)) {
			t.Fatalf("SizeHint = %d before the first read, want %d", got, len(insts))
		}
		got := Collect(cf).Insts
		if err := cf.Err(); err != nil {
			t.Fatalf("clean trace ended with error: %v", err)
		}
		cf.Close()
		if len(got) != len(insts) {
			t.Fatalf("read back %d records, want %d", len(got), len(insts))
		}
		for i, want := range insts {
			if got[i] != want {
				t.Fatalf("record %d: round trip %+v -> %+v", i, want, got[i])
			}
		}

		// Direction 2: fuzz bytes as a hostile stream and as a hostile
		// file. Any failure must surface as ErrBadMagic /
		// ErrBadVersion / ErrTruncated / ErrCorrupt, never a panic.
		checkErr := func(err error) {
			if err == nil {
				return
			}
			if !errors.Is(err, colv1.ErrBadMagic) && !errors.Is(err, colv1.ErrBadVersion) &&
				!errors.Is(err, colv1.ErrTruncated) && !errors.Is(err, colv1.ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
		path := tempTrace(t, data)
		for _, open := range []func() (*colv1.Reader, error){
			func() (*colv1.Reader, error) { return colv1.NewReader(bytes.NewReader(data)) },
			func() (*colv1.Reader, error) {
				cf, err := colv1.Open(path)
				if err != nil {
					return nil, err
				}
				t.Cleanup(func() { cf.Close() })
				return cf.Reader, nil
			},
		} {
			hr, err := open()
			if err != nil {
				checkErr(err)
				continue
			}
			batch := make([]isa.Inst, 333)
			for n := 0; n < 1<<20; {
				k := hr.ReadBatch(batch)
				if k == 0 {
					break
				}
				for _, in := range batch[:k] {
					if !in.Op.Valid() {
						t.Fatalf("reader emitted invalid opcode %d", in.Op)
					}
				}
				n += k
			}
			checkErr(hr.Err())
		}
	})
}
