package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"storemlp/internal/epoch"
	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Decode-ahead tests: the pipelined trace path must feed the engine the
// inline path's exact stream, and its producer must be joined before
// the run returns on every path.

const (
	aheadInsts = 30_000
	aheadWarm  = 10_000 // 40k instructions: nine full batches and a short one
)

// encodeTrace writes n instructions of w, generated under the default
// machine, in format f.
func encodeTrace(t testing.TB, w workload.Params, n int64, f trace.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteAllFormat(&buf, BuildSource(w, uarch.Default(), n), f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bytesReader opens a random-access columnar reader over data.
func bytesReader(t testing.TB, data []byte) *colv1.Reader {
	t.Helper()
	r, err := colv1.NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// streamReader opens a sequential reader over data, either format.
func streamReader(t testing.TB, data []byte) trace.FileSource {
	t.Helper()
	r, err := trace.NewAutoReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// replaySettings are the store-buffer/store-queue/prefetch points the
// replay benchmark sweeps over every trace.
func replaySettings() []uarch.Config {
	small, big := uarch.Default(), uarch.Default()
	small.StorePrefetch, small.StoreBuffer, small.StoreQueue = uarch.Sp0, 8, 16
	big.StorePrefetch, big.StoreBuffer, big.StoreQueue = uarch.Sp2, 32, 64
	return []uarch.Config{small, uarch.Default(), big}
}

// watchedSource wraps a trace source and enforces the lifecycle
// contract: once the run that owns it has returned (done is set),
// nothing may read it or ask for its error. onRead, when set, runs at
// every ReadBatch with the call's 1-based count.
type watchedSource struct {
	trace.FileSource
	t      *testing.T
	done   atomic.Bool
	reads  atomic.Int64
	onRead func(call int64)
}

func (w *watchedSource) ReadBatch(dst []isa.Inst) int {
	if w.done.Load() {
		w.t.Error("ReadBatch called after the run returned")
	}
	call := w.reads.Add(1)
	if w.onRead != nil {
		w.onRead(call)
	}
	return w.FileSource.ReadBatch(dst)
}

func (w *watchedSource) Err() error {
	if w.done.Load() {
		w.t.Error("Err called after the run returned")
	}
	return w.FileSource.Err()
}

// TestDecodeAheadExact: for the four paper workloads under the three
// replay settings, in both trace formats through the streaming and the
// file (mmap for columnar) backends, the pipelined run returns the
// inline run's statistics field for field, and every backend agrees.
func TestDecodeAheadExact(t *testing.T) {
	dir := t.TempDir()
	p := NewPool()
	for _, w := range workload.All(1) {
		leg := encodeTrace(t, w, aheadInsts+aheadWarm, trace.FormatLegacy)
		col := encodeTrace(t, w, aheadInsts+aheadWarm, trace.FormatColumnar)
		legPath, colPath := filepath.Join(dir, w.Name+".legacy"), filepath.Join(dir, w.Name+".columnar")
		for path, data := range map[string][]byte{legPath: leg, colPath: col} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		backends := []struct {
			name string
			open func() (trace.FileSource, func())
		}{
			{"legacy/stream", func() (trace.FileSource, func()) { return streamReader(t, leg), func() {} }},
			{"legacy/file", func() (trace.FileSource, func()) { return openFile(t, legPath) }},
			{"columnar/stream", func() (trace.FileSource, func()) { return streamReader(t, col), func() {} }},
			{"columnar/mmap", func() (trace.FileSource, func()) { return openFile(t, colPath) }},
		}
		for si, cfg := range replaySettings() {
			var ref *epoch.Stats
			for _, b := range backends {
				var got [2]*epoch.Stats
				for m, ahead := range []bool{false, true} {
					src, closeSrc := b.open()
					st, err := p.runTrace(context.Background(), src, cfg, aheadWarm, ahead)
					closeSrc()
					if err != nil {
						t.Fatalf("%s setting %d %s ahead=%v: %v", w.Name, si, b.name, ahead, err)
					}
					got[m] = st
				}
				if *got[1] != *got[0] {
					t.Errorf("%s setting %d %s: pipelined run diverged:\n got  %+v\n want %+v",
						w.Name, si, b.name, *got[1], *got[0])
				}
				if got[0].Insts != aheadInsts {
					t.Errorf("%s setting %d %s: measured %d insts, want %d", w.Name, si, b.name, got[0].Insts, aheadInsts)
				}
				if ref == nil {
					ref = got[0]
				} else if *got[0] != *ref {
					t.Errorf("%s setting %d: %s diverges from %s", w.Name, si, b.name, backends[0].name)
				}
			}
		}
	}
}

func openFile(t *testing.T, path string) (trace.FileSource, func()) {
	t.Helper()
	src, closer, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return src, func() { closer.Close() }
}

// TestDecodeAheadCancel: a run cancelled mid-stream, one cancelled
// before it starts and one whose Reconfigure fails all return an error
// and no statistics, and none touches its source after returning. The
// pool's engine and pipeline then serve an exact run.
func TestDecodeAheadCancel(t *testing.T) {
	data := encodeTrace(t, workload.TPCW(1), aheadInsts+aheadWarm, trace.FormatColumnar)
	cfg := uarch.Default()
	want, err := NewPool().runTrace(context.Background(), bytesReader(t, data), cfg, aheadWarm, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.StoreBuffer = 0
	for _, ahead := range []bool{false, true} {
		p := NewPool()

		ctx, cancel := context.WithCancel(context.Background())
		src := &watchedSource{FileSource: bytesReader(t, data), t: t, onRead: func(call int64) {
			if call == 3 {
				cancel()
			}
		}}
		st, err := p.runTrace(ctx, src, cfg, aheadWarm, ahead)
		src.done.Store(true)
		if !errors.Is(err, context.Canceled) || st != nil {
			t.Errorf("ahead=%v: mid-run cancel returned (%v, %v), want (nil, context.Canceled)", ahead, st, err)
		}
		// Decoding stops within the two spare buffers past the read
		// that cancelled: the producer never fills a buffer once the
		// run has halted it.
		if n := src.reads.Load(); n > 5 {
			t.Errorf("ahead=%v: cancelled run read the trace %d times, want at most 5", ahead, n)
		}

		src = &watchedSource{FileSource: bytesReader(t, data), t: t}
		st, err = p.runTrace(ctx, src, cfg, aheadWarm, ahead)
		src.done.Store(true)
		if !errors.Is(err, context.Canceled) || st != nil {
			t.Errorf("ahead=%v: pre-cancelled run returned (%v, %v), want (nil, context.Canceled)", ahead, st, err)
		}

		src = &watchedSource{FileSource: bytesReader(t, data), t: t}
		st, err = p.runTrace(context.Background(), src, bad, aheadWarm, ahead)
		src.done.Store(true)
		if err == nil || st != nil {
			t.Errorf("ahead=%v: invalid config returned (%v, %v), want an error", ahead, st, err)
		}
		if n := src.reads.Load(); n != 0 {
			t.Errorf("ahead=%v: failed Reconfigure still read the trace %d times", ahead, n)
		}

		got, err := p.runTrace(context.Background(), bytesReader(t, data), cfg, aheadWarm, ahead)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("ahead=%v: run after cancellation diverged:\n got  %+v\n want %+v", ahead, *got, *want)
		}
	}
}

// blockOffset returns the file offset of block k of a columnar image:
// blocks follow the 16-byte header, each a u32 payload length and its
// payload (see the colv1 package documentation).
func blockOffset(t *testing.T, data []byte, k int) int {
	t.Helper()
	off := 16
	for i := 0; i < k; i++ {
		if off+4 > len(data) {
			t.Fatalf("trace has fewer than %d blocks", k+1)
		}
		off += 4 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	return off
}

// TestDecodeAheadDecodeErrors: a trace cut short or corrupted mid-run
// surfaces the decoder's error and no statistics, pipelined or not; a
// nil source is an error, not a crash on the producer goroutine.
func TestDecodeAheadDecodeErrors(t *testing.T) {
	data := encodeTrace(t, workload.Database(1), aheadInsts+aheadWarm, trace.FormatColumnar)
	truncated := data[:blockOffset(t, data, 5)]
	corrupt := bytes.Clone(data)
	// A block claiming zero instructions is a structural violation.
	binary.LittleEndian.PutUint32(corrupt[blockOffset(t, data, 5)+4:], 0)
	legacy := encodeTrace(t, workload.Database(1), aheadInsts+aheadWarm, trace.FormatLegacy)

	cases := []struct {
		name string
		open func() trace.FileSource
		want error
	}{
		{"columnar truncated/stream", func() trace.FileSource { return streamReader(t, truncated) }, colv1.ErrTruncated},
		{"columnar corrupt/stream", func() trace.FileSource { return streamReader(t, corrupt) }, colv1.ErrCorrupt},
		{"columnar corrupt/random access", func() trace.FileSource { return bytesReader(t, corrupt) }, colv1.ErrCorrupt},
		{"legacy truncated/stream", func() trace.FileSource { return streamReader(t, legacy[:len(legacy)/2]) }, nil},
	}
	for _, ahead := range []bool{false, true} {
		if st, err := NewPool().runTrace(context.Background(), nil, uarch.Default(), 0, ahead); err == nil || st != nil {
			t.Errorf("nil source ahead=%v: got (%v, %v), want an error", ahead, st, err)
		}
	}
	for _, c := range cases {
		for _, ahead := range []bool{false, true} {
			src := &watchedSource{FileSource: c.open(), t: t}
			st, err := NewPool().runTrace(context.Background(), src, uarch.Default(), aheadWarm, ahead)
			src.done.Store(true)
			if err == nil || st != nil {
				t.Errorf("%s ahead=%v: got (%v, %v), want a decode error", c.name, ahead, st, err)
				continue
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Errorf("%s ahead=%v: err = %v, want %v", c.name, ahead, err, c.want)
			}
		}
	}
}

// TestDecodeAheadNoLeak: after 100 mixed complete, cancelled and
// corrupt pipelined runs, the goroutine count returns to its baseline.
func TestDecodeAheadNoLeak(t *testing.T) {
	data := encodeTrace(t, workload.SPECjbb(1), 20_000, trace.FormatColumnar)
	corrupt := bytes.Clone(data)
	binary.LittleEndian.PutUint32(corrupt[blockOffset(t, data, 2)+4:], 0)
	p := NewPool()
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var src trace.FileSource
		switch i % 3 {
		case 0:
			src = bytesReader(t, data)
		case 1:
			src = &watchedSource{FileSource: bytesReader(t, data), t: t, onRead: func(call int64) {
				if call == 2 {
					cancel()
				}
			}}
		case 2:
			src = bytesReader(t, corrupt)
		}
		st, err := p.runTrace(ctx, src, uarch.Default(), 5_000, true)
		cancel()
		if (err == nil) != (i%3 == 0) || (st == nil) == (i%3 == 0) {
			t.Fatalf("run %d (kind %d): got (%v, %v)", i, i%3, st, err)
		}
	}
	// A joined goroutine may still be unwinding its last frame; wait
	// for the count to settle rather than sampling it once.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines: %d after 100 runs, baseline %d", n, base)
	}
}

// TestDecodeAheadAllocs pins the allocation contract of a warmed
// pool: a steady-state trace run allocates only the returned Stats,
// and decoding ahead adds nothing — the buffers, channels and the
// producer's bound method are reused across runs.
func TestDecodeAheadAllocs(t *testing.T) {
	data := encodeTrace(t, workload.Database(1), aheadInsts+aheadWarm, trace.FormatColumnar)
	r := bytesReader(t, data)
	cfg := uarch.Default()
	p := NewPool()
	run := func(ahead bool) {
		if err := r.SeekInst(0); err != nil {
			t.Fatal(err)
		}
		if _, err := p.runTrace(context.Background(), r, cfg, aheadWarm, ahead); err != nil {
			t.Fatal(err)
		}
	}
	for _, ahead := range []bool{false, true} {
		run(ahead) // warm: engine, rings, pipeline buffers
		// AllocsPerRun counts mallocs process-wide; take the minimum
		// over a few attempts so background noise cannot fail the test
		// while a real per-run allocation still does.
		allocs := math.Inf(1)
		for attempt := 0; attempt < 3 && allocs > 1; attempt++ {
			allocs = math.Min(allocs, testing.AllocsPerRun(5, func() { run(ahead) }))
		}
		if allocs != 1 {
			t.Errorf("ahead=%v: steady-state trace run allocated %.0f objects, want 1 (the returned Stats)", ahead, allocs)
		}
	}
}

// TestDecodeAheadProgressTotal: a random-access reader knows the trace
// length, so the progress board plans the whole trace and the simulate
// span's arg is the measured count; a streamed trace's length is
// unknown and both stay 0.
func TestDecodeAheadProgressTotal(t *testing.T) {
	const total = aheadInsts + aheadWarm
	data := encodeTrace(t, workload.SPECweb(1), total, trace.FormatColumnar)
	cases := []struct {
		name      string
		src       func() trace.FileSource
		wantTotal int64
		wantArg   int64
	}{
		{"random access", func() trace.FileSource { return bytesReader(t, data) }, total, aheadInsts},
		{"stream", func() trace.FileSource { return streamReader(t, data) }, 0, 0},
	}
	for _, c := range cases {
		for _, ahead := range []bool{false, true} {
			board := obs.NewBoard()
			rt := obs.NewReqTrace("progress", 64, 0)
			ctx := obs.WithSpan(obs.NewContext(context.Background(), board), rt, rt.Root())
			planned := int64(-1)
			src := &watchedSource{FileSource: c.src(), t: t, onRead: func(call int64) {
				if call == 1 {
					if act := board.Active(); len(act) == 1 {
						planned = act[0].Total
					}
				}
			}}
			if _, err := NewPool().runTrace(ctx, src, uarch.Default(), aheadWarm, ahead); err != nil {
				t.Fatal(err)
			}
			if planned != c.wantTotal {
				t.Errorf("%s ahead=%v: board planned %d insts, want %d", c.name, ahead, planned, c.wantTotal)
			}
			var sim []obs.ReqSpan
			for _, sp := range rt.Snapshot() {
				if sp.Stage == obs.StageSimulate {
					sim = append(sim, sp)
				}
			}
			if len(sim) != 1 || sim[0].Arg != c.wantArg {
				t.Errorf("%s ahead=%v: simulate spans %+v, want one with arg %d", c.name, ahead, sim, c.wantArg)
			}
		}
	}
}

// TestDecodeAheadSpan: with a detailed request trace the producer
// records one decode span under the simulate span, covering every
// decoded instruction and overlapping the engine's batch spans; the
// inline path records none, and the span counts against the detail
// cap.
func TestDecodeAheadSpan(t *testing.T) {
	const total = aheadInsts + aheadWarm
	data := encodeTrace(t, workload.TPCW(1), total, trace.FormatColumnar)
	details := 0 // engine-detail spans of the uncapped pipelined run
	for _, ahead := range []bool{false, true} {
		rt := obs.NewReqTrace("decode", 512, 384)
		ctx := obs.WithSpan(context.Background(), rt, rt.Root())
		if _, err := NewPool().runTrace(ctx, bytesReader(t, data), uarch.Default(), aheadWarm, ahead); err != nil {
			t.Fatal(err)
		}
		spans := rt.Snapshot()
		simID := obs.NoSpan
		var decode []obs.ReqSpan
		var firstBatch, lastBatch obs.ReqSpan
		for i, sp := range spans {
			if ahead && sp.Stage.Detail() {
				details++
			}
			switch sp.Stage {
			case obs.StageSimulate:
				simID = obs.SpanID(i)
			case obs.StageDecode:
				decode = append(decode, sp)
			case obs.StageBatch:
				if firstBatch.End == 0 {
					firstBatch = sp
				}
				lastBatch = sp
			}
		}
		if !ahead {
			if len(decode) != 0 {
				t.Errorf("inline run recorded %d decode spans, want 0", len(decode))
			}
			continue
		}
		if len(decode) != 1 {
			t.Fatalf("pipelined run recorded %d decode spans, want 1", len(decode))
		}
		d := decode[0]
		if d.Parent != simID || d.Arg != total {
			t.Errorf("decode span %+v: want parent %d (simulate) and arg %d", d, simID, total)
		}
		if !(d.Start < lastBatch.End && firstBatch.Start < d.End) {
			t.Errorf("decode span [%d,%d] does not overlap the batch spans [%d,%d]",
				d.Start, d.End, firstBatch.Start, lastBatch.End)
		}
	}

	// The decode span is an engine-detail span: past the cap it is
	// dropped and counted like a batch span.
	rt := obs.NewReqTrace("capped", 512, 4)
	ctx := obs.WithSpan(context.Background(), rt, rt.Root())
	if _, err := NewPool().runTrace(ctx, bytesReader(t, data), uarch.Default(), aheadWarm, true); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, sp := range rt.Snapshot() {
		if sp.Stage.Detail() {
			kept++
		}
	}
	if kept != 4 || rt.Dropped() != details-4 {
		t.Errorf("capped trace kept %d detail spans and dropped %d, want 4 and %d", kept, rt.Dropped(), details-4)
	}
}

// TestDecodeAheadOneProc: RunTraceSource decodes inline, on the
// caller's goroutine, when GOMAXPROCS is 1 and on the producer
// goroutine otherwise; the statistics match.
func TestDecodeAheadOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	data := encodeTrace(t, workload.Database(2), aheadInsts+aheadWarm, trace.FormatColumnar)
	p := NewPool()
	var stats [2]*epoch.Stats
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var onProducer atomic.Bool
		src := &watchedSource{FileSource: bytesReader(t, data), t: t, onRead: func(int64) {
			buf := make([]byte, 16<<10)
			if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*decodeAhead).produce") {
				onProducer.Store(true)
			}
		}}
		st, err := p.RunTraceSource(context.Background(), src, uarch.Default(), aheadWarm)
		src.done.Store(true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := onProducer.Load(), procs > 1; got != want {
			t.Errorf("GOMAXPROCS=%d: trace read on the producer goroutine = %v, want %v", procs, got, want)
		}
		stats[i] = st
	}
	if *stats[0] != *stats[1] {
		t.Errorf("GOMAXPROCS 1 and 2 diverge:\n 1: %+v\n 2: %+v", *stats[0], *stats[1])
	}
}

// BenchmarkDecodeAhead replays the replay benchmark's four traces (1.5M
// instructions each: 500k warmup, 1M measured, default machine) two
// ways: inline decode and decode-ahead. Run it with -cpu 2 or more for
// the pipelined case to have a second core; EXPERIMENTS.md records the
// table.
func BenchmarkDecodeAhead(b *testing.B) {
	const warm, total = 500_000, 1_500_000
	cfg := uarch.Default()
	for _, w := range workload.All(1) {
		data := encodeTrace(b, w, total, trace.FormatColumnar)
		modes := []struct {
			name string
			run  func(p *Pool, r *colv1.Reader) (*epoch.Stats, error)
		}{
			{"inline", func(p *Pool, r *colv1.Reader) (*epoch.Stats, error) {
				return p.runTrace(context.Background(), r, cfg, warm, false)
			}},
			{"ahead", func(p *Pool, r *colv1.Reader) (*epoch.Stats, error) {
				return p.runTrace(context.Background(), r, cfg, warm, true)
			}},
		}
		for _, m := range modes {
			b.Run(w.Name+"/"+m.name, func(b *testing.B) {
				p, r := NewPool(), bytesReader(b, data)
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					if err := r.SeekInst(0); err != nil {
						b.Fatal(err)
					}
					if _, err := m.run(p, r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
