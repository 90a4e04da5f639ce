package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storemlp/internal/trace/colv1"
	"storemlp/internal/workload"
)

// legacyTrace is the header of a trace in the removed record-at-a-time
// format (magic, version 1, unknown count) followed by one record.
var legacyTrace = []byte("SMLT\x01\x00\x00\x00\x08\x00\x00\x00\x02\x00")

// genStream returns a fresh deterministic workload source limited to n
// instructions; calling it twice yields identical streams.
func genStream(n int64) Source {
	return Limit(workload.NewGenerator(workload.TPCW(7)), n)
}

// openBytes writes data to a temporary file and opens it with
// OpenFile, closing it again on success; it returns OpenFile's error.
func openBytes(t *testing.T, data []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, closer, err := OpenFile(path)
	if err == nil {
		closer.Close()
	}
	return err
}

// encode writes n generated instructions through WriteAll.
func encode(t *testing.T, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	written, err := WriteAll(&buf, genStream(n))
	if err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	if written != n {
		t.Fatalf("WriteAll wrote %d, want %d", written, n)
	}
	return buf.Bytes()
}

// isLegacyErr reports whether err is the removal error a legacy trace
// gets: a bad magic that names the remedy.
func isLegacyErr(err error) bool {
	return errors.Is(err, colv1.ErrBadMagic) && strings.Contains(err.Error(), "regenerate the trace with tracegen")
}

// TestOpenFileBothFormats opens a file of each format ever written: a
// columnar trace round-trips through OpenFile with its count known up
// front, and a legacy trace fails with the removal error instead of
// decoding.
func TestOpenFileBothFormats(t *testing.T) {
	const n = 8_192
	want := Collect(genStream(n)).Insts
	dir := t.TempDir()
	path := filepath.Join(dir, "columnar.trace")
	if err := os.WriteFile(path, encode(t, n), 0o644); err != nil {
		t.Fatal(err)
	}
	src, closer, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	// OpenFile reads the total through the trailer, so the count is
	// exact before a single instruction decodes.
	if hint := src.SizeHint(); hint != n {
		t.Errorf("SizeHint = %d, want %d", hint, n)
	}
	got := Collect(src).Insts
	if err := src.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d insts, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d mismatch", i)
		}
	}

	legacy := filepath.Join(dir, "legacy.trace")
	if err := os.WriteFile(legacy, legacyTrace, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(legacy); !isLegacyErr(err) {
		t.Errorf("legacy file: err = %v, want the legacy-format-removed error", err)
	}
}

// TestAutoReaderBadMagic: the streaming reader, which sniffs the magic
// of whatever stream it is handed, rejects an unknown magic with
// ErrBadMagic and a stream too short to hold a magic with an error.
func TestAutoReaderBadMagic(t *testing.T) {
	if _, err := colv1.NewReader(bytes.NewReader([]byte("XXXX trailing"))); !errors.Is(err, colv1.ErrBadMagic) {
		t.Errorf("unknown magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := colv1.NewReader(bytes.NewReader([]byte("SM"))); err == nil {
		t.Error("short stream: want error, got nil")
	}
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := OpenFile(filepath.Join(dir, "missing.trace")); err == nil {
		t.Error("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("GARBAGE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(bad); !errors.Is(err, colv1.ErrBadMagic) || isLegacyErr(err) {
		t.Errorf("garbage file: err = %v, want plain ErrBadMagic", err)
	}
}
