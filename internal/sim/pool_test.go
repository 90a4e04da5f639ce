package sim

import (
	"context"
	"sync"
	"testing"

	"storemlp/internal/consistency"
	"storemlp/internal/epoch"
	"storemlp/internal/obs"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// freshRun runs s on a newly built engine, bypassing the free list: the
// reference a recycled engine must match.
func freshRun(t *testing.T, s Spec) *epoch.Stats {
	t.Helper()
	cfg, opts := prepare(s)
	e, err := epoch.New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run(BuildSource(s.Workload, cfg, s.Warm+s.Insts))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPoolMatchesRun drives a sequence of differently shaped specs —
// consistency models, SMAC, multi-node traffic, shared core — through
// RunContext and requires bit-identical statistics versus a fresh
// engine, in spite of each run inheriting the previous run's recycled
// engine. The free list is process-wide, so reuse is asserted by delta:
// sequential runs park at most one engine more than were idle before.
func TestPoolMatchesRun(t *testing.T) {
	wc := uarch.Default()
	wc.Model = consistency.WC
	smacCfg := uarch.Default()
	smacCfg.SMACEntries = 32 << 10
	multi := uarch.Default()
	multi.Nodes = 2

	specs := []Spec{
		{Workload: workload.Database(1), Config: uarch.Default(), Insts: 60_000, Warm: 30_000},
		{Workload: workload.TPCW(2), Config: wc, Insts: 60_000, Warm: 30_000},
		{Workload: workload.Database(3), Config: smacCfg, Insts: 60_000, Warm: 30_000},
		{Workload: workload.Database(4), Config: multi, Insts: 60_000, Warm: 30_000},
		{Workload: workload.Database(5), Config: uarch.Default(), Insts: 60_000, Warm: 30_000, SharedCore: true},
		{Workload: workload.Database(1), Config: uarch.Default(), Insts: 60_000, Warm: 30_000},
	}

	before := IdleEngines()
	for i, s := range specs {
		want := freshRun(t, s)
		got, err := RunContext(context.Background(), s)
		if err != nil {
			t.Fatalf("spec %d: RunContext: %v", i, err)
		}
		if *got != *want {
			t.Errorf("spec %d: recycled run diverged:\n got  %+v\n want %+v", i, *got, *want)
		}
	}
	if idle := IdleEngines(); idle < max(before, 1) || idle > before+1 {
		t.Errorf("%d sequential runs left %d engines idle (%d before), want reuse of one engine", len(specs), idle, before)
	}
}

// TestPoolRecyclesAfterCancel: an engine abandoned mid-run must return
// to the free list and produce correct results on its next lease.
func TestPoolRecyclesAfterCancel(t *testing.T) {
	s := Spec{Workload: workload.Database(1), Config: uarch.Default(), Insts: 60_000, Warm: 30_000}

	before := IdleEngines()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, s); err == nil {
		t.Fatal("expected cancellation error")
	}
	if idle := IdleEngines(); idle < max(before, 1) || idle > before+1 {
		t.Fatalf("cancelled run left %d engines idle (%d before), want its engine parked", idle, before)
	}

	want := freshRun(t, s)
	got, err := RunContext(context.Background(), s)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if *got != *want {
		t.Errorf("post-cancel recycled run diverged:\n got  %+v\n want %+v", *got, *want)
	}
}

// TestConcurrentRunsShareTrace runs several specs at once under one
// request trace, as experiments -parallel -progress does. Each run
// adds its counter deltas, so once they finish the trace and its board
// hold exactly the sums of the runs' Stats. The trace's detail cap is
// 0, so it records the simulate spans but no engine detail.
func TestConcurrentRunsShareTrace(t *testing.T) {
	wc := uarch.Default()
	wc.Model = consistency.WC
	specs := []Spec{
		{Workload: workload.Database(1), Config: uarch.Default(), Insts: 40_000, Warm: 20_000},
		{Workload: workload.TPCW(2), Config: wc, Insts: 30_000, Warm: 10_000},
		{Workload: workload.SPECjbb(3), Config: uarch.Default(), Insts: 50_000, Warm: 5_000},
		{Workload: workload.SPECweb(4), Config: wc, Insts: 20_000, Warm: 20_000},
	}
	board := obs.NewBoard()
	rt := board.NewReqTrace("sweep", 64, 0)
	ctx := obs.WithSpan(context.Background(), rt, rt.Root())
	stats := make([]*epoch.Stats, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = RunContext(ctx, specs[i])
		}(i)
	}
	wg.Wait()

	var want obs.Snapshot
	for i, st := range stats {
		if errs[i] != nil {
			t.Fatalf("spec %d: %v", i, errs[i])
		}
		want.Total += specs[i].Warm + specs[i].Insts
		want.Insts += specs[i].Warm + specs[i].Insts
		want.Measured += st.Insts
		want.Epochs += st.Epochs
		want.LoadInstMisses += st.LoadMisses + st.InstMisses
		want.StoreMisses += st.StoreMisses
	}
	s := rt.Live()
	got := obs.Snapshot{Total: s.Total, Insts: s.Insts, Measured: s.Measured, Epochs: s.Epochs,
		LoadInstMisses: s.LoadInstMisses, StoreMisses: s.StoreMisses}
	if got != want {
		t.Errorf("live counters %+v, want the runs' sums %+v", got, want)
	}
	if !s.Done {
		t.Error("trace reports runs in flight after every run returned")
	}
	runs := board.Runs()
	if tot := runs.Totals; tot != (obs.Totals{FinishedRuns: int64(len(specs)), Insts: want.Insts, Epochs: want.Epochs}) {
		t.Errorf("board totals %+v, want %d finished runs, 0 active", tot, len(specs))
	}
	if len(runs.Active) != 0 {
		t.Errorf("board still lists %d traces", len(runs.Active))
	}
	for _, sp := range rt.Snapshot() {
		if sp.Stage.Detail() {
			t.Errorf("detail-free trace recorded a %s span", sp.Stage)
		}
	}
}
