package storemlp

// One benchmark per table and figure of the paper's evaluation. Each
// drives the same harness code that cmd/experiments uses, at a reduced
// per-run instruction count so the full suite completes in minutes; run
// cmd/experiments for full-scale numbers (EXPERIMENTS.md records those).
// Headline results are attached as custom benchmark metrics.

import (
	"bytes"
	"context"
	"testing"

	"storemlp/internal/epoch"
	"storemlp/internal/experiments"
	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/sim"
	"storemlp/internal/trace"
	"storemlp/internal/trace/colv1"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// benchConfig sizes one harness invocation for benchmarking.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, Insts: 150_000, Warm: 100_000}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].StoreFreq, "dbStoreFreq/100")
			b.ReportMetric(rows[0].StoreMiss, "dbStoreMiss/100")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[1].Overlapped, "tpcwOverlapped")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].CPIOnChip, "dbCPIonchip")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.TPCW(1)}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				if !c.Perfect && c.Prefetch == uarch.Sp1 && c.SB == 16 && c.SQ == 32 {
					b.ReportMetric(c.EPI, "tpcwSp1EPI")
				}
			}
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.SPECjbb(1)}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Variant == "A" {
					b.ReportMetric(r.Fractions[4], "jbbStoreSerializeFrac") // TermStoreSerialize
				}
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.Database(1)}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].StoreMLP, "dbStoreMLP")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.Database(1)}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				if !c.Perfect && c.Prefetch == uarch.Sp0 && c.SMACEntries == 4<<10 {
					b.ReportMetric(c.EPI, "dbSp0Smac4kEPI")
				}
			}
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.TPCW(1)}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				if c.Nodes == 4 && c.SMACEntries == 4<<10 {
					b.ReportMetric(c.InvalPer1000, "tpcw4nodeInval/1000")
				}
			}
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.SPECweb(1)}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var pc1, wc1 float64
			for _, c := range cells {
				if !c.Perfect && c.Prefetch == uarch.Sp1 {
					switch c.Config {
					case "PC1":
						pc1 = c.EPI
					case "WC1":
						wc1 = c.EPI
					}
				}
			}
			b.ReportMetric(pc1-wc1, "webConsistencyGapEPI")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.TPCW(1)}
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				if !c.Perfect && c.Model.String() == "PC" && c.HWS == uarch.HWS2 {
					b.ReportMetric(c.EPI, "tpcwPcHws2EPI")
				}
			}
		}
	}
}

func BenchmarkAblationCoalescing(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.Database(1)}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCoalescing(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBandwidth(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.Database(1)}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBandwidth(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScoutReach(b *testing.B) {
	cfg := benchConfig()
	cfg.Workloads = []workload.Params{workload.TPCW(1)}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScoutReach(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine measures raw simulator throughput: instructions
// simulated per second through the full epoch engine (default
// configuration, database workload).
func BenchmarkEngine(b *testing.B) {
	const n = 500_000
	w := workload.Database(1)
	b.SetBytes(n)
	for i := 0; i < b.N; i++ {
		if _, err := Run(RunSpec{Workload: w, Config: DefaultConfig(), Insts: n, Warm: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTraced is BenchmarkEngine with the observability
// sinks attached exactly as mlpsimd attaches them: a request trace with
// the default engine-detail cap (batch and fold spans nested under the
// run's simulate span) whose runs report to a progress board. The
// delta against BenchmarkEngine is the cost of *enabled* tracing; a
// disabled (nil) trace costs only a nil check and is proven
// allocation-free by TestStepZeroAllocTracerDisabled in internal/epoch.
func BenchmarkEngineTraced(b *testing.B) {
	const n = 500_000
	w := workload.Database(1)
	board := obs.NewBoard()
	b.SetBytes(n)
	for i := 0; i < b.N; i++ {
		rt := board.NewReqTrace("bench", 512, 384)
		if _, err := RunContext(obs.WithSpan(context.Background(), rt, rt.Root()), RunSpec{Workload: w, Config: DefaultConfig(), Insts: n, Warm: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReplay measures the steady-state serving path: the
// trace is pre-materialized and one engine is recycled through
// Reconfigure, isolating the simulator core from trace generation and
// from construction-time allocation. The gap between this and
// BenchmarkEngine is what the trace generator and per-run setup cost.
func BenchmarkEngineReplay(b *testing.B) {
	const n = 500_000
	cfg := DefaultConfig()
	sl := trace.Collect(sim.BuildSource(workload.Database(1), cfg, n))
	eng, err := epoch.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Reconfigure(cfg); err != nil {
			b.Fatal(err)
		}
		sl.Reset()
		if _, err := eng.Run(sl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTraceDriven is BenchmarkEngine fed from a
// pre-encoded columnar trace instead of the synthetic generator: the
// delta against BenchmarkEngine is the full cost of the trace path
// (decode + batch plumbing). scripts/bench.sh records the ratio as
// trace_driven_vs_synthetic; the columnar decoder is cheap enough that
// it should stay within 20% of the generator path.
func BenchmarkEngineTraceDriven(b *testing.B) {
	const n = 500_000
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, Database(1), DefaultConfig(), n); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := RunTrace(bytes.NewReader(enc), DefaultConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if s.Insts != n {
			b.Fatalf("trace run measured %d insts, want %d", s.Insts, n)
		}
	}
}

// BenchmarkTraceDecodeColumnar measures pure decode throughput: a
// pre-encoded 200k-instruction TPC-W trace pulled through ReadBatch
// into the engine's 4096-inst batch buffer, exactly the shape RunTrace
// uses. Decoding costs O(blocks) allocations.
func BenchmarkTraceDecodeColumnar(b *testing.B) {
	const n = 200_000
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, TPCW(1), DefaultConfig(), n); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	batch := make([]isa.Inst, 4096)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := colv1.NewReader(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		for {
			k := src.ReadBatch(batch)
			if k == 0 {
				break
			}
			total += int64(k)
		}
		if err := src.Err(); err != nil {
			b.Fatal(err)
		}
		if total != n {
			b.Fatalf("decoded %d insts, want %d", total, n)
		}
	}
}

// BenchmarkTraceEncodeColumnar measures generation + encoding into a
// discarding writer, the tracegen hot path. With a spare core (-cpu 2
// or more) the generator runs ahead of the encoder on it, so the
// number is the slower of the two halves, not their sum.
func BenchmarkTraceEncodeColumnar(b *testing.B) {
	const n = 200_000
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sink countWriter
		if _, err := WriteTrace(&sink, TPCW(1), DefaultConfig(), n); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
