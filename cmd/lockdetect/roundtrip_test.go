package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storemlp/internal/isa"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
)

// reparse reads a rewritten trace back through the trace codec,
// failing the test on any decode error, and returns the count of
// instructions without lock flags plus the total.
func reparse(t *testing.T, path string) (nonLock, total int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := colv1.NewReader(f)
	if err != nil {
		t.Fatalf("%s does not re-parse: %v", filepath.Base(path), err)
	}
	for _, in := range trace.Collect(tr).Insts {
		if !in.Op.Valid() {
			t.Fatalf("%s: invalid opcode %d at instruction %d", filepath.Base(path), in.Op, total)
		}
		total++
		if !in.Flags.Has(isa.FlagLockAcquire) && !in.Flags.Has(isa.FlagLockRelease) {
			nonLock++
		}
	}
	if tr.Err() != nil {
		t.Fatalf("%s: decode error mid-stream: %v", filepath.Base(path), tr.Err())
	}
	return nonLock, total
}

// TestRewriteRoundTrip is the golden round-trip for the rewrite modes:
// each -rewrite output must re-parse cleanly through the codec, and
// since every transform only inserts, drops or retypes lock-flagged
// instructions (WC's barriers carry the lock flags of the idiom they
// expand), the count of non-lock instructions must survive unchanged.
func TestRewriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.trace")
	writeTestTrace(t, in)

	// Golden baseline: detection only, no rewrite. The marked trace
	// fixes which instructions are part of lock idioms.
	marked := filepath.Join(dir, "marked.trace")
	var out strings.Builder
	if err := run([]string{"-in", in, "-out", marked}, &out); err != nil {
		t.Fatal(err)
	}
	wantNonLock, baseTotal := reparse(t, marked)
	if wantNonLock == 0 || wantNonLock == baseTotal {
		t.Fatalf("degenerate baseline: %d non-lock of %d total (trace needs both kinds)",
			wantNonLock, baseTotal)
	}

	for _, mode := range []string{"wc", "sle", "tm"} {
		outPath := filepath.Join(dir, mode+".trace")
		var runOut strings.Builder
		if err := run([]string{"-in", in, "-rewrite", mode, "-out", outPath}, &runOut); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		nonLock, total := reparse(t, outPath)
		if nonLock != wantNonLock {
			t.Errorf("%s: non-lock instructions %d, want %d (rewrites must only touch lock idioms)",
				mode, nonLock, wantNonLock)
		}
		switch mode {
		case "wc":
			// WC expands acquire (1->3) and release (1->2) idioms.
			if total <= baseTotal {
				t.Errorf("wc: total %d should exceed baseline %d (barrier insertion)", total, baseTotal)
			}
		case "sle":
			// SLE keeps the acquire's validating load but drops the rest.
			if total >= baseTotal || total <= nonLock {
				t.Errorf("sle: total %d, want between non-lock %d and baseline %d",
					total, nonLock, baseTotal)
			}
		case "tm":
			// TM removes every lock instruction outright.
			if total != nonLock {
				t.Errorf("tm: total %d should equal non-lock count %d", total, nonLock)
			}
		}
	}
}
