package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"storemlp/internal/consistency"
	"storemlp/internal/isa"
	"storemlp/internal/sim"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Source-ahead tests for trace writing: WriteAll runs its source on the
// producer stage when the occupancy rule grants a spare core, and must
// write the inline bytes either way.

// writeModels are the three consistency settings tracegen writes.
func writeModels() []struct {
	name string
	cfg  uarch.Config
} {
	pc, wc, sle := uarch.Default(), uarch.Default(), uarch.Default()
	wc.Model = consistency.WC
	sle.Model, sle.SLE = consistency.WC, true
	return []struct {
		name string
		cfg  uarch.Config
	}{{"PC", pc}, {"WC", wc}, {"WC+SLE", sle}}
}

// fixtureInsts is the length of every pinned fixture trace.
const fixtureInsts = 100_000

// encoderFixture pins the sha256 of the columnar bytes WriteAll
// produces for each workload (seed 1) and model at fixtureInsts, as
// written by the per-instruction-closure encoder this one replaced:
// the on-disk format must not move by a byte.
var encoderFixture = map[string]string{
	"database/PC":     "5a17852b1894ccc72d5fa2b1dde1710fb42d3f40483e48b9c1d422c0b5b30aae",
	"database/WC":     "e5bf28347cabe3ff19e0bbf181d4a6d6bedfb58881f8f1187c61040ca234f045",
	"database/WC+SLE": "d1f62c52c2c64b11739d84431ce72d6a9347a2e411f78217f844c6ad584fff74",
	"tpcw/PC":         "58f5b83bd4a960eac2fdd80849141eca6491393476c927e02b3fbe792f779f6d",
	"tpcw/WC":         "c993b01ac0a9ad2ec12bf643d7a6da291ee511dc72c890d2babbc9e1e327b08e",
	"tpcw/WC+SLE":     "562a6491dffcf8b3d597ed78aa2867e284c0ba2b60b222303ee29c3474ad3a47",
	"specjbb/PC":      "a1c6fd90c5c5b80ed4d1457e7a85bdb8fd4df019a9dbb16615752fbd38b2c8cf",
	"specjbb/WC":      "e1549a13d76c9c64426a5158a7078c85b9c401a4ba21ca1c46c7ab80f8546628",
	"specjbb/WC+SLE":  "1a81a4f62e9b06eea56b5974955c4e4b75bfc244db7d39ccd418347a6a7d5645",
	"specweb/PC":      "a9a99d7a28bb989d1e92a1fae5ad7f074894233f829b410eb7d4e9a5a50f83bd",
	"specweb/WC":      "c928101643e1052c9ef077384ded6e2bc6ed3dd65c7648c70db986fa848b4164",
	"specweb/WC+SLE":  "ae029ac8eee0547d4c59fd018579ebcaab85346d15717116d7a6a8ce1a525aaa",
}

// TestWriteAllAhead: for the four paper workloads under PC, WC and
// WC+SLE, WriteAll writes the same bytes with one P (inline) and two
// (source ahead), and those bytes match the pinned fixture.
func TestWriteAllAhead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workload.All(1) {
		for _, m := range writeModels() {
			key := w.Name + "/" + m.name
			var sums [2]string
			for i, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				var buf bytes.Buffer
				n, err := trace.WriteAll(&buf, sim.BuildSource(w, m.cfg, fixtureInsts))
				if err != nil || n != fixtureInsts {
					t.Fatalf("%s GOMAXPROCS=%d: WriteAll = (%d, %v), want (%d, nil)", key, procs, n, err, fixtureInsts)
				}
				sum := sha256.Sum256(buf.Bytes())
				sums[i] = hex.EncodeToString(sum[:])
			}
			if sums[0] != sums[1] {
				t.Errorf("%s: inline and ahead bytes differ: %s vs %s", key, sums[0], sums[1])
			}
			if want := encoderFixture[key]; sums[0] != want {
				t.Errorf("%s: sha256 %s, want %s", key, sums[0], want)
			}
		}
	}
}

// failingWriter accepts ok bytes, then fails every write.
type failingWriter struct{ ok int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.ok {
		w.ok -= len(p)
		return len(p), nil
	}
	n := w.ok
	w.ok = 0
	return n, errDiskFull
}

// countedSource counts its reads, records whether any ran on a
// producer goroutine, and flags any made after done is set.
type countedSource struct {
	trace.Source
	t     *testing.T
	reads atomic.Int64
	ahead atomic.Bool
	done  atomic.Bool
}

func (c *countedSource) ReadBatch(dst []isa.Inst) int {
	if c.done.Load() {
		c.t.Error("source read after WriteAll returned")
	}
	c.reads.Add(1)
	buf := make([]byte, 16<<10)
	if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "trace.(*Stage).produce") {
		c.ahead.Store(true)
	}
	return c.Source.ReadBatch(dst)
}

// TestWriteAllWriterError: a writer that fails partway through the
// trace fails WriteAll with its error, inline (one P) and with the
// source ahead (two); WriteAll has joined its producer by then, so the
// goroutine count returns to baseline and the source is never read
// again.
func TestWriteAllWriterError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		src := &countedSource{Source: sim.BuildSource(workload.Database(1), uarch.Default(), fixtureInsts), t: t}
		n, err := trace.WriteAll(&failingWriter{ok: 200 << 10}, src)
		src.done.Store(true)
		if !errors.Is(err, errDiskFull) {
			t.Errorf("GOMAXPROCS=%d: WriteAll error %v, want %v", procs, err, errDiskFull)
		}
		if n <= 0 || n >= fixtureInsts {
			t.Errorf("GOMAXPROCS=%d: WriteAll accepted %d instructions, want a partial count", procs, n)
		}
		if got, want := src.ahead.Load(), procs > 1; got != want {
			t.Errorf("GOMAXPROCS=%d: source read on a producer = %v, want %v", procs, got, want)
		}
		reads := src.reads.Load()
		// A joined goroutine may still be unwinding its last frame; wait
		// for the count to settle rather than sampling it once.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after WriteAll returned, baseline %d", procs, g, base)
		}
		if got := src.reads.Load(); got != reads {
			t.Errorf("GOMAXPROCS=%d: source read %d more times after WriteAll returned", procs, got-reads)
		}
	}
}
