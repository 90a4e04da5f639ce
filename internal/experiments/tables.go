package experiments

import (
	"storemlp/internal/onchip"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
)

// Table1Row reproduces one column of the paper's Table 1: store
// frequency and L2 store/load/instruction miss rates per 100
// instructions for a 2 MB 4-way 64 B-line L2.
type Table1Row struct {
	Workload  string
	StoreFreq float64
	StoreMiss float64
	LoadMiss  float64
	InstMiss  float64
}

// Table1 replays each workload through the default cache hierarchy and
// reports the Table 1 statistics. It shares Table 3's replay.
func Table1(c Config) ([]Table1Row, error) {
	c = c.norm()
	rows := make([]Table1Row, len(c.Workloads))
	err := parMap(c.ctx(), len(c.Workloads), c.Parallelism, func(i int) error {
		w := c.Workloads[i]
		in, err := onchip.Measure(w, c.Warm, c.Insts)
		if err != nil {
			return err
		}
		per100 := func(n int64) float64 { return 100 * float64(n) / float64(in.Insts) }
		rows[i] = Table1Row{
			Workload:  w.Name,
			StoreFreq: per100(in.Stores),
			StoreMiss: per100(in.StoreOffChip),
			LoadMiss:  per100(in.LoadOffChip),
			InstMiss:  per100(in.FetchOffChip),
		}
		return nil
	})
	return rows, err
}

// Table2Row is one column of Table 2: the fraction of missing stores
// fully overlapped with computation under the default configuration and
// a 500-cycle memory latency.
type Table2Row struct {
	Workload   string
	Overlapped float64
}

// Table2 runs the default configuration per workload.
func Table2(c Config) ([]Table2Row, error) {
	c = c.norm()
	rows := make([]Table2Row, len(c.Workloads))
	err := parMap(c.ctx(), len(c.Workloads), c.Parallelism, func(i int) error {
		w := c.Workloads[i]
		s, err := c.run(sim.Spec{Workload: w, Config: uarch.Default(), Insts: c.Insts, Warm: c.Warm})
		if err != nil {
			return err
		}
		rows[i] = Table2Row{Workload: w.Name, Overlapped: s.OverlappedStoreFraction()}
		return nil
	})
	return rows, err
}

// Table3Row is one column of Table 3: CPIon-chip for the default
// configuration (L1 4 cycles, L2 15 cycles).
type Table3Row struct {
	Workload  string
	CPIOnChip float64
}

// Table3 evaluates the analytical on-chip CPI model per workload.
func Table3(c Config) ([]Table3Row, error) {
	c = c.norm()
	rows := make([]Table3Row, len(c.Workloads))
	model := onchip.DefaultModel()
	err := parMap(c.ctx(), len(c.Workloads), c.Parallelism, func(i int) error {
		w := c.Workloads[i]
		in, err := onchip.Measure(w, c.Warm, c.Insts)
		if err != nil {
			return err
		}
		rows[i] = Table3Row{Workload: w.Name, CPIOnChip: model.CPI(in)}
		return nil
	})
	return rows, err
}
