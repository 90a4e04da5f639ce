package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"storemlp/internal/epoch"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

func TestSplitRunInvariants(t *testing.T) {
	for _, tc := range []struct {
		warm, insts int64
		k           int
		overlap     int64
	}{
		{10_000, 20_000, 4, 16_384},
		{0, 500_000, 8, 16_384},
		{1_000_000, 500_000, 3, 4_096},
		{5, 7, 2, 3},
		{0, 1, 1, 16_384},
	} {
		segs := splitRun(tc.warm, tc.insts, tc.k, tc.overlap)
		if len(segs) != tc.k {
			t.Fatalf("splitRun(%+v): %d segments, want %d", tc, len(segs), tc.k)
		}
		var measured int64
		for i, sg := range segs {
			if sg.start < 0 || sg.start > sg.meas || sg.meas >= sg.end {
				t.Fatalf("segment %d malformed: %+v", i, sg)
			}
			if i == 0 {
				if sg.start != 0 || sg.meas != tc.warm {
					t.Fatalf("segment 0 must absorb the warmup: %+v", sg)
				}
			} else {
				if sg.meas != segs[i-1].end {
					t.Fatalf("segment %d does not abut its predecessor: %+v after %+v", i, sg, segs[i-1])
				}
				if ov := sg.meas - sg.start; ov != tc.overlap && sg.start != 0 {
					t.Fatalf("segment %d overlap %d, want %d (or clamped to stream start)", i, ov, tc.overlap)
				}
			}
			measured += sg.end - sg.meas
		}
		if measured != tc.insts {
			t.Fatalf("segments measure %d insts, want %d", measured, tc.insts)
		}
		if last := segs[len(segs)-1]; last.end != tc.warm+tc.insts {
			t.Fatalf("last segment ends at %d, want %d", last.end, tc.warm+tc.insts)
		}
	}
}

func TestSegmentsClamp(t *testing.T) {
	for _, tc := range []struct {
		insts int64
		k     int
		want  int
	}{
		{500_000, 0, 1},
		{500_000, 1, 1},
		{500_000, 4, 4},
		{20_000, 4, 4},
		{8_192, 4, 2},
		{4_096, 8, 1},
		{100, 8, 1},
	} {
		s := Spec{Insts: tc.insts, Parallel: tc.k}
		if got := Segments(s); got != tc.want {
			t.Errorf("Segments(insts=%d, parallel=%d) = %d, want %d", tc.insts, tc.k, got, tc.want)
		}
	}
}

// TestParallelSingleSegmentBitExact: one segment is the whole serial
// run — same stream, same warmup, same engine path — so the parallel
// plumbing at K=1 must be bit-identical to RunContext.
func TestParallelSingleSegmentBitExact(t *testing.T) {
	spec := Spec{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 20_000, Warm: 10_000}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPool().runParallel(context.Background(), spec, WarmupOverlap(spec.Uarch))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", *want) {
		t.Errorf("K=1 parallel diverges from serial:\n got %+v\nwant %+v", *got, *want)
	}
}

// exactCounters are the overlap-invariant counters: they depend only on
// the measured instruction range, not on machine state carried across a
// segment boundary, so parallel simulation must reproduce them exactly.
func exactCounters(t *testing.T, name string, got, want *epoch.Stats) {
	t.Helper()
	if got.Insts != want.Insts {
		t.Errorf("%s: Insts = %d, want %d", name, got.Insts, want.Insts)
	}
	if got.Hierarchy.Fetches != want.Hierarchy.Fetches {
		t.Errorf("%s: Fetches = %d, want %d", name, got.Hierarchy.Fetches, want.Hierarchy.Fetches)
	}
	if got.Hierarchy.Loads != want.Hierarchy.Loads {
		t.Errorf("%s: Loads = %d, want %d", name, got.Hierarchy.Loads, want.Hierarchy.Loads)
	}
	if got.Hierarchy.Stores != want.Hierarchy.Stores {
		t.Errorf("%s: Stores = %d, want %d", name, got.Hierarchy.Stores, want.Hierarchy.Stores)
	}
	if got.Snoops != want.Snoops {
		t.Errorf("%s: Snoops = %d, want %d", name, got.Snoops, want.Snoops)
	}
}

// relDrift returns |got-want| / want (0 when both are 0).
func relDrift(got, want int64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// driftTolerance is the documented accuracy contract for parallel runs
// at WarmupOverlap: EPI and total charged misses stay within 0.5% of
// the serial run (DESIGN.md §15).
const driftTolerance = 0.005

// TestParallelGoldenEquivalence runs the full 104-config golden grid
// at K=4 and checks the contract against the serial engine: exact for
// overlap-invariant counters, <=0.5% EPI and total-miss drift for the
// state-dependent rest.
func TestParallelGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is a few seconds of simulation")
	}
	pool := NewPool()
	var worstEPI, worstMiss float64
	var worstName string
	for _, gs := range goldenSpecs() {
		serial, err := Run(gs.spec)
		if err != nil {
			t.Fatalf("%s: serial: %v", gs.name, err)
		}
		spec := gs.spec
		spec.Parallel = 4
		par, err := pool.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: parallel: %v", gs.name, err)
		}
		exactCounters(t, gs.name, par, serial)
		epiDrift := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9)
		missDrift := relDrift(par.Misses(), serial.Misses())
		if epiDrift > worstEPI {
			worstEPI, worstName = epiDrift, gs.name
		}
		if missDrift > worstMiss {
			worstMiss = missDrift
		}
		if epiDrift > driftTolerance {
			t.Errorf("%s: EPI drift %.4f%% exceeds %.2f%% (serial %.4f, parallel %.4f)",
				gs.name, 100*epiDrift, 100*driftTolerance, serial.EPI(), par.EPI())
		}
		if missDrift > driftTolerance {
			t.Errorf("%s: miss drift %.4f%% exceeds %.2f%% (serial %d, parallel %d)",
				gs.name, 100*missDrift, 100*driftTolerance, serial.Misses(), par.Misses())
		}
	}
	t.Logf("worst EPI drift %.4f%% (%s), worst miss drift %.4f%% at overlap %d",
		100*worstEPI, worstName, 100*worstMiss, WarmupOverlap(uarch.Default()))
}

// TestOverlapSweep documents how accuracy scales with the overlap
// length at production scale — the sweep that chose overlapPerL2Line.
// The golden grid is useless for this choice: its runs are short
// enough that any overlap past ~32k clamps every segment back to the
// stream start, making state reconstruction trivially exact. Accuracy
// must instead be measured on runs long enough that segments start
// mid-stream with only the overlap to rebuild L2 residency. Run with
// -v to see the curve; the contract is asserted at WarmupOverlap and
// beyond, across every workload at 500k and 2M instructions.
func TestOverlapSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is several seconds of simulation")
	}
	cases := []struct {
		name  string
		w     workload.Params
		insts int64
	}{
		{"tpcw-500k", workload.TPCW(1), 500_000},
		{"database-500k", workload.Database(1), 500_000},
		{"specjbb-500k", workload.SPECjbb(1), 500_000},
		{"specweb-500k", workload.SPECweb(1), 500_000},
		{"tpcw-2M", workload.TPCW(1), 2_000_000},
		{"database-2M", workload.Database(1), 2_000_000},
	}
	pool := NewPool()
	def := WarmupOverlap(uarch.Default())
	for _, overlap := range []int64{32_768, 65_536, 131_072, def, 2 * def} {
		var worst float64
		var worstName string
		for _, tc := range cases {
			spec := Spec{Workload: tc.w, Uarch: uarch.Default(), Insts: tc.insts, Warm: tc.insts / 5}
			serial, err := Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			spec.Parallel = 4
			par, err := pool.runParallel(context.Background(), spec, overlap)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			d := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9)
			if d > worst {
				worst, worstName = d, tc.name
			}
		}
		t.Logf("overlap %6d: worst EPI drift %.4f%% (%s)", overlap, 100*worst, worstName)
		if overlap >= def && worst > driftTolerance {
			t.Errorf("overlap %d: worst EPI drift %.4f%% exceeds the %.2f%% contract",
				overlap, 100*worst, 100*driftTolerance)
		}
	}
}

// TestParallelTrace drives the same columnar trace through the serial
// and parallel trace paths: K=1 must be bit-exact; K=4 keeps the
// overlap-invariant counters exact and the rest within tolerance.
func TestParallelTrace(t *testing.T) {
	const (
		insts = 40_000
		warm  = 8_000
	)
	cfg := uarch.Default()
	var buf bytes.Buffer
	if _, err := trace.WriteAllFormat(&buf, BuildSource(workload.TPCW(1), cfg, insts+warm), trace.FormatColumnar); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	serialR, err := colv1.NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	serialCfg := cfg
	serialCfg.WarmInsts = warm
	eng, err := epoch.New(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := eng.RunContext(context.Background(), serialR)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool()
	one, err := pool.RunTraceParallel(context.Background(), data, cfg, warm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *one) != fmt.Sprintf("%+v", *serial) {
		t.Errorf("K=1 trace parallel diverges from serial:\n got %+v\nwant %+v", *one, *serial)
	}

	par, err := pool.RunTraceParallel(context.Background(), data, cfg, warm, 4)
	if err != nil {
		t.Fatal(err)
	}
	exactCounters(t, "trace K=4", par, serial)
	if d := math.Abs(par.EPI()-serial.EPI()) / math.Max(serial.EPI(), 1e-9); d > driftTolerance {
		t.Errorf("trace K=4: EPI drift %.4f%% exceeds %.2f%%", 100*d, 100*driftTolerance)
	}
}

// TestParallelCancel: a cancelled context must surface as the
// context's error from every entry point, with all segment goroutines
// joined before return (the race detector would catch stragglers).
func TestParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Workload: workload.Database(1), Uarch: uarch.Default(),
		Insts: 100_000, Warm: 0, Parallel: 4}
	if _, err := NewPool().RunContext(ctx, spec); err != context.Canceled {
		t.Errorf("cancelled parallel run: err = %v, want context.Canceled", err)
	}
}

// TestParallelValidate: the knob is validated like every other field.
func TestParallelValidate(t *testing.T) {
	spec := Spec{Workload: workload.Database(1), Uarch: uarch.Default(), Insts: 1000, Parallel: -1}
	if err := spec.Validate(); err == nil {
		t.Error("negative Parallel passed Validate")
	}
}
