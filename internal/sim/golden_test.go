package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storemlp/internal/consistency"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// The equivalence golden test: the sliding-window + batched engine must
// produce bit-identical Stats to the legacy map-based accounting. The
// fixture under testdata was generated from the legacy engine (the
// recs-map implementation that preceded the epoch-record ring) over a
// reduced Figure-2 grid plus configurations covering every accounting
// path: both consistency models, SLE/TM lock rewriting, all store
// prefetch modes, the SMAC, Hardware Scout, prefetch-past-serializing,
// coherence traffic, the shared core, the modelled branch predictor,
// unbounded store queues and disabled coalescing.
//
// Regenerate (only when an intentional model change lands) with:
//
//	go test ./internal/sim -run TestGoldenStats -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.txt from the current engine")

const (
	goldenInsts = 20_000
	goldenWarm  = 10_000
)

// goldenSpecs enumerates the grid. Every entry is one named simulation;
// the fixture stores the full %+v rendering of its Stats (exported and
// unexported fields alike), so any accounting drift fails the diff.
func goldenSpecs() []struct {
	name string
	spec Spec
} {
	var out []struct {
		name string
		spec Spec
	}
	add := func(name string, w workload.Params, cfg uarch.Config, mut func(*Spec)) {
		s := Spec{Workload: w, Config: cfg, Insts: goldenInsts, Warm: goldenWarm}
		if mut != nil {
			mut(&s)
		}
		out = append(out, struct {
			name string
			spec Spec
		}{name, s})
	}

	for _, w := range workload.All(1) {
		// Reduced Figure-2 grid: prefetch mode x store buffer x store queue.
		for _, sp := range []uarch.PrefetchMode{uarch.Sp0, uarch.Sp1, uarch.Sp2} {
			for _, sb := range []int{8, 16} {
				for _, sq := range []int{16, 32} {
					cfg := uarch.Default()
					cfg.StorePrefetch = sp
					cfg.StoreBuffer = sb
					cfg.StoreQueue = sq
					add(fmt.Sprintf("%s/fig2/sp%d/sb%d/sq%d", w.Name, sp, sb, sq), w, cfg, nil)
				}
			}
		}
		// Perfect-store floor.
		cfg := uarch.Default()
		cfg.PerfectStores = true
		add(w.Name+"/perfect", w, cfg, nil)

		// Weak consistency, with and without speculative lock elision.
		cfg = uarch.Default()
		cfg.Model = consistency.WC
		add(w.Name+"/wc", w, cfg, nil)
		cfg = uarch.Default()
		cfg.Model = consistency.WC
		cfg.SLE = true
		add(w.Name+"/wc+sle", w, cfg, nil)

		// PC variants: SLE, TM, prefetch past serializing, HWS modes.
		cfg = uarch.Default()
		cfg.SLE = true
		add(w.Name+"/pc+sle", w, cfg, nil)
		cfg = uarch.Default()
		cfg.TM = true
		add(w.Name+"/pc+tm", w, cfg, nil)
		cfg = uarch.Default()
		cfg.PrefetchPastSerializing = true
		add(w.Name+"/pc+pps", w, cfg, nil)
		for _, hws := range []uarch.HWSMode{uarch.HWS0, uarch.HWS2} {
			cfg = uarch.Default()
			cfg.HWS = hws
			add(fmt.Sprintf("%s/hws%d", w.Name, hws), w, cfg, nil)
		}

		// SMAC, 4-node coherence traffic, shared core, branch predictor.
		cfg = uarch.Default()
		cfg.SMACEntries = 4 << 10
		add(w.Name+"/smac4k", w, cfg, nil)
		cfg = uarch.Default()
		cfg.Nodes = 4
		add(w.Name+"/nodes4", w, cfg, nil)
		cfg = uarch.Default()
		add(w.Name+"/sharedcore", w, cfg, func(s *Spec) { s.SharedCore = true })
		cfg = uarch.Default()
		cfg.ModelBranchPredictor = true
		add(w.Name+"/bp", w, cfg, nil)

		// Structural extremes: unbounded store queue, no coalescing.
		cfg = uarch.Default()
		cfg.StoreQueue = 0
		add(w.Name+"/sq-unbounded", w, cfg, nil)
		cfg = uarch.Default()
		cfg.CoalesceBytes = 0
		add(w.Name+"/no-coalesce", w, cfg, nil)
	}
	return out
}

func renderGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, gs := range goldenSpecs() {
		stats, err := runSpec(gs.spec)
		if err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		fmt.Fprintf(&b, "%s %+v\n", gs.name, *stats)
	}
	return b.String()
}

func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is a few seconds of simulation")
	}
	path := filepath.Join("testdata", "golden_stats.txt")
	got := renderGolden(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	// Report the first few divergent lines, not a wall of text.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	diffs := 0
	for i := 0; i < n && diffs < 5; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
			diffs++
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("line count: got %d, want %d", len(gotLines), len(wantLines))
	}
	if diffs == 0 {
		t.Errorf("stats diverge from golden fixture")
	}
}
