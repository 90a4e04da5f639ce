package epoch

import (
	"math"
	"reflect"
	"testing"

	"storemlp/internal/obs"
	"storemlp/internal/trace"
)

// TestStepZeroAllocTracerDisabled is the observability half of the
// allocation contract: with no request trace attached (the
// default), the steady-state step loop allocates nothing at all — the
// nil checks on the obs fast path are free. Unlike the budgeted
// TestRunContextAllocationFree, this reuses the trace source, so the
// bound is exactly zero.
func TestStepZeroAllocTracerDisabled(t *testing.T) {
	cfg := exCfg()
	cfg.SMACEntries = 8 << 10
	src := trace.NewSlice(mixTrace(17, 50_000))

	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Warm run: grows every structure to steady state.
	if _, err := e.Run(src); err != nil {
		t.Fatalf("warm Run: %v", err)
	}

	// AllocsPerRun counts mallocs process-wide, so background noise (GC
	// housekeeping, stragglers from earlier tests) can leak into one
	// measurement. A real regression allocates on every run; take the
	// minimum over a few attempts to reject the noise, not the signal.
	allocs := math.Inf(1)
	for attempt := 0; attempt < 3 && allocs != 0; attempt++ {
		a := testing.AllocsPerRun(5, func() {
			src.Reset()
			if _, err := e.Run(src); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
		if a < allocs {
			allocs = a
		}
	}
	if allocs != 0 {
		t.Errorf("disabled-tracer steady-state run allocated %.0f objects, want exactly 0", allocs)
	}
}

// TestRunObsEquivalence checks that attaching a request trace perturbs
// nothing: statistics are bit-identical to an untraced run, the
// engine-detail spans (batches, one fold, one measure_start instant)
// all nest under the parent span the caller passed, and the trace's
// live counters end at the run's true totals.
func TestRunObsEquivalence(t *testing.T) {
	cfg := exCfg()
	cfg.WarmInsts = 5_000
	insts := mixTrace(23, 30_000)

	base, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := base.Run(trace.NewSlice(insts))
	if err != nil {
		t.Fatalf("untraced Run: %v", err)
	}

	rt := obs.NewReqTrace("obs", 64, 32)
	sim := rt.StartSpan(obs.StageSimulate, rt.Root())
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.SetObs(rt, sim)
	got, err := e.Run(trace.NewSlice(insts))
	if err != nil {
		t.Fatalf("traced Run: %v", err)
	}
	rt.EndSpan(sim, got.Insts)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("traced run diverged from untraced run:\nwant %+v\ngot  %+v", want, got)
	}

	stages := map[obs.Stage]int{}
	for _, sp := range rt.Snapshot() {
		if !sp.Stage.Detail() {
			continue
		}
		stages[sp.Stage]++
		if sp.Parent != sim {
			t.Errorf("%s span parent %d, want the simulate span %d", sp.Stage, sp.Parent, sim)
		}
		if sp.End == 0 || sp.End < sp.Start {
			t.Errorf("%s span not closed: %+v", sp.Stage, sp)
		}
		// The instant fires while stepping the first measured
		// instruction, so its arg counts that instruction too.
		if sp.Stage == obs.StageMeasureStart && sp.Arg != cfg.WarmInsts+1 {
			t.Errorf("measure_start arg = %d, want warmup+1 = %d", sp.Arg, cfg.WarmInsts+1)
		}
	}
	wantBatches := (len(insts) + batchLen - 1) / batchLen
	if stages[obs.StageBatch] != wantBatches || stages[obs.StageFold] != 1 || stages[obs.StageMeasureStart] != 1 {
		t.Errorf("detail spans = %v, want %d batches, one fold and one measure_start", stages, wantBatches)
	}
	if rt.Dropped() != 0 {
		t.Errorf("Dropped = %d inside the detail cap", rt.Dropped())
	}

	checkLive(t, rt, int64(len(insts)), got)
}

// checkLive asserts that rt's live counters hold exactly one run's
// totals: insts stepped and the measured, epoch and miss counts of st.
func checkLive(t *testing.T, rt *obs.ReqTrace, insts int64, st *Stats) {
	t.Helper()
	s := rt.Live()
	want := obs.Snapshot{Insts: insts, Measured: st.Insts, Epochs: st.Epochs,
		LoadInstMisses: st.LoadMisses + st.InstMisses, StoreMisses: st.StoreMisses}
	got := obs.Snapshot{Insts: s.Insts, Measured: s.Measured, Epochs: s.Epochs,
		LoadInstMisses: s.LoadInstMisses, StoreMisses: s.StoreMisses}
	if got != want {
		t.Errorf("live counters %+v, want %+v", got, want)
	}
}

// TestRunObsCountersWithoutDetail: a trace with detail cap 0 (the CLIs'
// root trace) still receives the live counters, but the engine records
// no detail spans on it.
func TestRunObsCountersWithoutDetail(t *testing.T) {
	cfg := exCfg()
	cfg.WarmInsts = 5_000
	insts := mixTrace(23, 30_000)
	rt := obs.NewReqTrace("counters", 64, 0)
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.SetObs(rt, rt.Root())
	got, err := e.Run(trace.NewSlice(insts))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := len(rt.Snapshot()); n != 1 || rt.Dropped() != 0 {
		t.Errorf("detail-free trace holds %d spans (%d dropped), want the root alone", n, rt.Dropped())
	}
	checkLive(t, rt, int64(len(insts)), got)
}

// TestReconfigureDetachesObs: recycled engines must never leak a
// previous request's sinks (the resetcomplete contract, behaviorally).
func TestReconfigureDetachesObs(t *testing.T) {
	cfg := exCfg()
	insts := mixTrace(29, 10_000)
	rt := obs.NewReqTrace("detach", 64, 32)

	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.SetObs(rt, rt.Root())
	if _, err := e.Run(trace.NewSlice(insts)); err != nil {
		t.Fatalf("traced Run: %v", err)
	}
	before, counted := len(rt.Snapshot()), rt.Live().Insts
	if before == 1 {
		t.Fatal("traced run recorded no spans")
	}

	if err := e.Reconfigure(cfg); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if _, err := e.Run(trace.NewSlice(insts)); err != nil {
		t.Fatalf("post-Reconfigure Run: %v", err)
	}
	if after := len(rt.Snapshot()); after != before {
		t.Errorf("reconfigured engine still traced: %d new spans", after-before)
	}
	if n := rt.Live().Insts; n != counted {
		t.Errorf("reconfigured engine still counted: %d new insts", n-counted)
	}
}
