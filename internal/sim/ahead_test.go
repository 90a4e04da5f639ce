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

	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Source-ahead tests: a run whose source (trace decode, or the
// generator and its rewrite chain) runs ahead on the producer stage
// must feed the engine the inline path's exact stream, the producer
// must be joined before the run returns on every path, and the
// occupancy rule decides which runs get a producer.

const (
	aheadInsts = 30_000
	aheadWarm  = 10_000 // 40k instructions: nine full batches and a short one
)

// pinned returns the stage constructor that runs a test's stream ahead
// or inline regardless of the occupancy rule.
func pinned(ahead bool) startStage {
	if ahead {
		return startAhead
	}
	return startInline
}

func startAhead(src trace.Source, rt *obs.ReqTrace, parent obs.SpanID) *trace.Stage {
	return trace.StartPinned(src, true, rt, parent)
}

func startInline(src trace.Source, rt *obs.ReqTrace, parent obs.SpanID) *trace.Stage {
	return trace.StartPinned(src, false, rt, parent)
}

// encodeTrace writes n instructions of w, generated under the default
// machine, as a trace.
func encodeTrace(t testing.TB, w workload.Params, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, BuildSource(w, uarch.Default(), n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamReader opens a sequential reader over data.
func streamReader(t testing.TB, data []byte) *colv1.Reader {
	t.Helper()
	r, err := colv1.NewReader(bytes.NewReader(data))
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
// replay settings, read from an in-memory stream and from a file
// opened with trace.OpenFile, the pipelined run returns the inline
// run's statistics field for field, and both inputs agree.
func TestDecodeAheadExact(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workload.All(1) {
		col := encodeTrace(t, w, aheadInsts+aheadWarm)
		colPath := filepath.Join(dir, w.Name+".columnar")
		if err := os.WriteFile(colPath, col, 0o644); err != nil {
			t.Fatal(err)
		}
		backends := []struct {
			name string
			open func() (trace.FileSource, func())
		}{
			{"columnar/stream", func() (trace.FileSource, func()) { return streamReader(t, col), func() {} }},
			{"columnar/file", func() (trace.FileSource, func()) { return openFile(t, colPath) }},
		}
		for si, cfg := range replaySettings() {
			var ref *epoch.Stats
			for _, b := range backends {
				var got [2]*epoch.Stats
				for m, ahead := range []bool{false, true} {
					src, closeSrc := b.open()
					st, err := runTrace(context.Background(), src, cfg, aheadWarm, pinned(ahead))
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

// openBytes writes data to a temporary file and opens it with
// trace.OpenFile; the file is closed when the test ends.
func openBytes(t *testing.T, data []byte) trace.FileSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src, closeSrc := openFile(t, path)
	t.Cleanup(closeSrc)
	return src
}

// sliceFile is a FileSource over an in-memory trace that never fails;
// Reset rewinds it between runs.
type sliceFile struct{ *trace.Slice }

func (sliceFile) Err() error { return nil }

// TestDecodeAheadCancel: a run cancelled mid-stream, one cancelled
// before it starts and one whose Reconfigure fails all return an error
// and no statistics, and none touches its source after returning. The
// recycled engine and pipeline then serve an exact run.
func TestDecodeAheadCancel(t *testing.T) {
	data := encodeTrace(t, workload.TPCW(1), aheadInsts+aheadWarm)
	cfg := uarch.Default()
	want, err := runTrace(context.Background(), streamReader(t, data), cfg, aheadWarm, pinned(false))
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.StoreBuffer = 0
	for _, ahead := range []bool{false, true} {

		ctx, cancel := context.WithCancel(context.Background())
		src := &watchedSource{FileSource: streamReader(t, data), t: t, onRead: func(call int64) {
			if call == 3 {
				cancel()
			}
		}}
		st, err := runTrace(ctx, src, cfg, aheadWarm, pinned(ahead))
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

		src = &watchedSource{FileSource: streamReader(t, data), t: t}
		st, err = runTrace(ctx, src, cfg, aheadWarm, pinned(ahead))
		src.done.Store(true)
		if !errors.Is(err, context.Canceled) || st != nil {
			t.Errorf("ahead=%v: pre-cancelled run returned (%v, %v), want (nil, context.Canceled)", ahead, st, err)
		}

		src = &watchedSource{FileSource: streamReader(t, data), t: t}
		st, err = runTrace(context.Background(), src, bad, aheadWarm, pinned(ahead))
		src.done.Store(true)
		if err == nil || st != nil {
			t.Errorf("ahead=%v: invalid config returned (%v, %v), want an error", ahead, st, err)
		}
		if n := src.reads.Load(); n != 0 {
			t.Errorf("ahead=%v: failed Reconfigure still read the trace %d times", ahead, n)
		}

		got, err := runTrace(context.Background(), streamReader(t, data), cfg, aheadWarm, pinned(ahead))
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
	data := encodeTrace(t, workload.Database(1), aheadInsts+aheadWarm)
	truncated := data[:blockOffset(t, data, 5)]
	corrupt := bytes.Clone(data)
	// A block claiming zero instructions is a structural violation.
	binary.LittleEndian.PutUint32(corrupt[blockOffset(t, data, 5)+4:], 0)

	cases := []struct {
		name string
		open func() trace.FileSource
		want error
	}{
		{"columnar truncated/stream", func() trace.FileSource { return streamReader(t, truncated) }, colv1.ErrTruncated},
		{"columnar corrupt/stream", func() trace.FileSource { return streamReader(t, corrupt) }, colv1.ErrCorrupt},
		{"columnar corrupt/file", func() trace.FileSource { return openBytes(t, corrupt) }, colv1.ErrCorrupt},
	}
	for _, ahead := range []bool{false, true} {
		if st, err := runTrace(context.Background(), nil, uarch.Default(), 0, pinned(ahead)); err == nil || st != nil {
			t.Errorf("nil source ahead=%v: got (%v, %v), want an error", ahead, st, err)
		}
	}
	for _, c := range cases {
		for _, ahead := range []bool{false, true} {
			src := &watchedSource{FileSource: c.open(), t: t}
			st, err := runTrace(context.Background(), src, uarch.Default(), aheadWarm, pinned(ahead))
			src.done.Store(true)
			if err == nil || st != nil {
				t.Errorf("%s ahead=%v: got (%v, %v), want a decode error", c.name, ahead, st, err)
				continue
			}
			if !errors.Is(err, c.want) {
				t.Errorf("%s ahead=%v: err = %v, want %v", c.name, ahead, err, c.want)
			}
		}
	}
}

// TestDecodeAheadNoLeak: after 100 mixed complete, cancelled and
// corrupt pipelined runs, the goroutine count returns to its baseline.
func TestDecodeAheadNoLeak(t *testing.T) {
	data := encodeTrace(t, workload.SPECjbb(1), 20_000)
	corrupt := bytes.Clone(data)
	binary.LittleEndian.PutUint32(corrupt[blockOffset(t, data, 2)+4:], 0)
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var src trace.FileSource
		switch i % 3 {
		case 0:
			src = streamReader(t, data)
		case 1:
			src = &watchedSource{FileSource: streamReader(t, data), t: t, onRead: func(call int64) {
				if call == 2 {
					cancel()
				}
			}}
		case 2:
			src = streamReader(t, corrupt)
		}
		st, err := runTrace(ctx, src, uarch.Default(), 5_000, pinned(true))
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

// TestDecodeAheadAllocs pins the allocation contract of a warm engine
// free list: a steady-state trace run allocates only the returned
// Stats, and decoding ahead adds nothing — the stage's buffers,
// channels and bound producer method come back from the trace
// package's free list. The trace is a rewindable in-memory slice, so
// the count is the run path's alone.
func TestDecodeAheadAllocs(t *testing.T) {
	data := encodeTrace(t, workload.Database(1), aheadInsts+aheadWarm)
	s := trace.Collect(streamReader(t, data))
	var src trace.FileSource = sliceFile{s}
	cfg := uarch.Default()
	run := func(ahead bool) {
		s.Reset()
		if _, err := runTrace(context.Background(), src, cfg, aheadWarm, pinned(ahead)); err != nil {
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

// TestDecodeAheadProgressTotal: a trace opened with trace.OpenFile
// knows its length, so the trace's live progress plans all of it and
// the simulate span's arg is the measured count; a trace streamed from
// an io.Reader has an unknown length and both stay 0.
func TestDecodeAheadProgressTotal(t *testing.T) {
	const total = aheadInsts + aheadWarm
	data := encodeTrace(t, workload.SPECweb(1), total)
	cases := []struct {
		name      string
		src       func() trace.FileSource
		wantTotal int64
		wantArg   int64
	}{
		{"file", func() trace.FileSource { return openBytes(t, data) }, total, aheadInsts},
		{"stream", func() trace.FileSource { return streamReader(t, data) }, 0, 0},
	}
	for _, c := range cases {
		for _, ahead := range []bool{false, true} {
			rt := obs.NewReqTrace("progress", 64, 0)
			ctx := obs.WithSpan(context.Background(), rt, rt.Root())
			planned := int64(-1)
			src := &watchedSource{FileSource: c.src(), t: t, onRead: func(call int64) {
				if call == 1 && !rt.Live().Done {
					planned = rt.Live().Total
				}
			}}
			if _, err := runTrace(ctx, src, uarch.Default(), aheadWarm, pinned(ahead)); err != nil {
				t.Fatal(err)
			}
			if planned != c.wantTotal {
				t.Errorf("%s ahead=%v: trace planned %d insts, want %d", c.name, ahead, planned, c.wantTotal)
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
	data := encodeTrace(t, workload.TPCW(1), total)
	details := 0 // engine-detail spans of the uncapped pipelined run
	for _, ahead := range []bool{false, true} {
		rt := obs.NewReqTrace("decode", 512, 384)
		ctx := obs.WithSpan(context.Background(), rt, rt.Root())
		if _, err := runTrace(ctx, streamReader(t, data), uarch.Default(), aheadWarm, pinned(ahead)); err != nil {
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
	if _, err := runTrace(ctx, streamReader(t, data), uarch.Default(), aheadWarm, pinned(true)); err != nil {
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
	data := encodeTrace(t, workload.Database(2), aheadInsts+aheadWarm)
	var stats [2]*epoch.Stats
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var readAhead atomic.Bool
		src := &watchedSource{FileSource: streamReader(t, data), t: t, onRead: func(int64) {
			if onProducer() {
				readAhead.Store(true)
			}
		}}
		st, err := RunTraceSource(context.Background(), src, uarch.Default(), aheadWarm)
		src.done.Store(true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readAhead.Load(), procs > 1; got != want {
			t.Errorf("GOMAXPROCS=%d: trace read on the producer goroutine = %v, want %v", procs, got, want)
		}
		stats[i] = st
	}
	if *stats[0] != *stats[1] {
		t.Errorf("GOMAXPROCS 1 and 2 diverge:\n 1: %+v\n 2: %+v", *stats[0], *stats[1])
	}
}

// TestDecodeAheadSynthetic: a synthetic run whose generator and
// rewrite chain run on the producer returns the inline run's statistics
// field for field, for the four paper workloads under the machine
// features that read the stream or share the engine goroutine with it:
// coherence snoops (two nodes), one node, the shared-core co-runner, a
// 4K-entry SMAC and WC+SLE.
func TestDecodeAheadSynthetic(t *testing.T) {
	twoNodes, oneNode, smac, wcsle := uarch.Default(), uarch.Default(), uarch.Default(), uarch.Default()
	oneNode.Nodes = 1
	smac.SMACEntries = 4096
	wcsle.Model, wcsle.SLE = consistency.WC, true
	cases := []struct {
		name   string
		cfg    uarch.Config
		shared bool
	}{
		{"two nodes", twoNodes, false},
		{"one node", oneNode, false},
		{"shared core", twoNodes, true},
		{"SMAC 4K", smac, false},
		{"WC+SLE", wcsle, false},
	}
	snoops := false
	for _, w := range workload.All(1) {
		for _, c := range cases {
			s := Spec{Workload: w, Config: c.cfg, Insts: aheadInsts, Warm: aheadWarm, SharedCore: c.shared}
			var got [2]*epoch.Stats
			for m, ahead := range []bool{false, true} {
				st, err := run(context.Background(), s, pinned(ahead))
				if err != nil {
					t.Fatalf("%s %s ahead=%v: %v", w.Name, c.name, ahead, err)
				}
				got[m] = st
			}
			if *got[1] != *got[0] {
				t.Errorf("%s %s: run with the generator ahead diverged:\n got  %+v\n want %+v",
					w.Name, c.name, *got[1], *got[0])
			}
			snoops = snoops || got[0].Snoops > 0
		}
	}
	if !snoops {
		t.Error("no run saw coherence snoops; the two-node cases test nothing")
	}
}

// onProducer reports whether the calling goroutine is a producer
// stage's.
func onProducer() bool {
	buf := make([]byte, 16<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "trace.(*Stage).produce")
}

// stackProbe is a source that records whether any of its reads ran on
// a producer goroutine.
type stackProbe struct {
	trace.Source
	ahead atomic.Bool
}

func (p *stackProbe) ReadBatch(dst []isa.Inst) int {
	if onProducer() {
		p.ahead.Store(true)
	}
	return p.Source.ReadBatch(dst)
}

// TestDecodeAheadOccupancy pins the occupancy rule. At GOMAXPROCS 2 a
// lone run takes the spare core and records a decode span; a run that
// starts while another run holds the spare core runs inline and records
// none; once the holder returns, the core is free again. At GOMAXPROCS
// 1 neither a run nor a trace write ever starts a producer.
func TestDecodeAheadOccupancy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spec := Spec{Workload: workload.TPCW(1), Config: uarch.Default(), Insts: aheadInsts, Warm: aheadWarm}
	decodeSpans := func() int {
		t.Helper()
		rt := obs.NewReqTrace("occupancy", 512, 384)
		if _, err := RunContext(obs.WithSpan(context.Background(), rt, rt.Root()), spec); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sp := range rt.Snapshot() {
			if sp.Stage == obs.StageDecode {
				n++
			}
		}
		return n
	}
	// writeOnProducer writes a short trace and reports whether its
	// source was read on a producer goroutine.
	writeOnProducer := func() bool {
		t.Helper()
		src := &stackProbe{Source: BuildSource(workload.TPCW(1), uarch.Default(), 20_000)}
		var buf bytes.Buffer
		if _, err := trace.WriteAll(&buf, src); err != nil {
			t.Fatal(err)
		}
		return src.ahead.Load()
	}

	runtime.GOMAXPROCS(2)
	if n := decodeSpans(); n != 1 {
		t.Errorf("GOMAXPROCS=2 lone run: %d decode spans, want 1", n)
	}
	if !writeOnProducer() {
		t.Error("GOMAXPROCS=2 lone trace write read its source inline, want ahead")
	}
	// Hold the spare core with a trace run parked inside its first read.
	data := encodeTrace(t, workload.Database(1), aheadInsts+aheadWarm)
	started, resume := make(chan struct{}), make(chan struct{})
	holder := &watchedSource{FileSource: streamReader(t, data), t: t, onRead: func(call int64) {
		if call == 1 {
			close(started)
			<-resume
		}
	}}
	done := make(chan error, 1)
	go func() {
		_, err := RunTraceSource(context.Background(), holder, uarch.Default(), aheadWarm)
		done <- err
	}()
	<-started
	if n := decodeSpans(); n != 0 {
		t.Errorf("GOMAXPROCS=2 run beside a run holding the spare core: %d decode spans, want 0", n)
	}
	if writeOnProducer() {
		t.Error("GOMAXPROCS=2 trace write beside a run holding the spare core ran ahead, want inline")
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := decodeSpans(); n != 1 {
		t.Errorf("GOMAXPROCS=2 run after the holder returned: %d decode spans, want 1", n)
	}

	runtime.GOMAXPROCS(1)
	if n := decodeSpans(); n != 0 {
		t.Errorf("GOMAXPROCS=1 run: %d decode spans, want 0", n)
	}
	if writeOnProducer() {
		t.Error("GOMAXPROCS=1 trace write read its source on a producer, want inline")
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
		data := encodeTrace(b, w, total)
		for _, m := range []struct {
			name  string
			ahead bool
		}{{"inline", false}, {"ahead", true}} {
			b.Run(w.Name+"/"+m.name, func(b *testing.B) {
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					if _, err := runTrace(context.Background(), streamReader(b, data), cfg, warm, pinned(m.ahead)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
