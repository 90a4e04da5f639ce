package epoch

// Reconfigure must be observationally identical to building a fresh
// engine with New: a recycled engine carrying state from an arbitrary
// prior run (including an abandoned one) has to reproduce a fresh
// engine's statistics bit for bit across consistency models, SMAC
// on/off, and structure-size changes.

import (
	"context"
	"testing"

	"storemlp/internal/consistency"
	"storemlp/internal/isa"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
)

// mixTrace builds a deterministic pseudo-random instruction mix.
func mixTrace(seed int64, cnt int) []isa.Inst {
	insts := make([]isa.Inst, 0, cnt)
	for i := 0; i < cnt; i++ {
		switch seed % 5 {
		case 0:
			insts = append(insts, st(cold(i%40)))
		case 1:
			insts = append(insts, ld(cold(i%40)))
		case 2:
			insts = append(insts, st(hot(i%16)))
		case 3:
			insts = append(insts, alu())
		default:
			insts = append(insts, membar())
		}
		seed = seed*1103515245 + 12345
	}
	return insts
}

// prewarm puts the hot lines in the hierarchy exactly like runTrace.
func prewarm(e *Engine) {
	h := e.Hierarchy()
	h.Fetch(hotPC)
	h.Store(lockA, false)
	for i := 0; i < 16; i++ {
		h.Store(hot(i), false)
	}
}

func TestReconfigureMatchesNew(t *testing.T) {
	wc := exCfg()
	wc.Model = consistency.WC
	smacCfg := exCfg()
	smacCfg.SMACEntries = 8 << 10
	// A different cache geometry forces Reconfigure to rebuild the
	// hierarchy, and the last config rebuilds it back.
	smallL2 := uarch.Default()
	smallL2.Hierarchy.L2.SizeBytes = 1 << 20
	cfgs := []uarch.Config{exCfg(), wc, smacCfg, smallL2, exCfg()}

	recycled := new(Engine)
	for i, cfg := range cfgs {
		insts := mixTrace(int64(i)*977+3, 400)
		want := runTrace(t, cfg, insts)

		if err := recycled.Reconfigure(cfg); err != nil {
			t.Fatalf("cfg %d: Reconfigure: %v", i, err)
		}
		prewarm(recycled)
		got, err := recycled.Run(trace.NewSlice(insts))
		if err != nil {
			t.Fatalf("cfg %d: Run: %v", i, err)
		}
		if *got != *want {
			t.Errorf("cfg %d: recycled engine diverged from fresh engine:\n got  %+v\n want %+v", i, *got, *want)
		}
	}
}

// TestReconfigureAfterCancelledRun recycles an engine whose previous
// run was abandoned mid-stream, leaving populated window slots and
// occupancy state behind.
func TestReconfigureAfterCancelledRun(t *testing.T) {
	cfg := exCfg()
	insts := mixTrace(41, 600)
	want := runTrace(t, cfg, insts)

	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, trace.NewSlice(mixTrace(7, 5000))); err == nil {
		t.Fatal("expected cancellation error")
	}
	// Also abandon a run that made real progress: run half the trace
	// uncancelled, then reconfigure over the dirty state.
	if _, err := e.Run(trace.NewSlice(mixTrace(99, 3000))); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := e.Reconfigure(cfg); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	prewarm(e)
	got, err := e.Run(trace.NewSlice(insts))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != *want {
		t.Errorf("recycled engine diverged after abandoned run:\n got  %+v\n want %+v", *got, *want)
	}
}
