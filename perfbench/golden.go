package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"storemlp"
	"storemlp/internal/server"
)

// counterNames names the simulated statistics the output check compares,
// in counters order.
var counterNames = [...]string{
	"insts", "epochs", "store_misses", "load_misses", "inst_misses", "smac_accelerated",
	"overlapped_stores", "exposed_stores",
	"fetches", "fetch_offchip", "loads", "load_offchip", "stores", "store_offchip",
	"store_upgrades", "tlb_misses", "l2_store_traffic", "l2_prefetch_reqs",
	"smac_probes", "smac_hits", "snoops",
}

// counters is one run's simulated statistics: deterministic for a fixed
// input, so they compare exactly between runs and commits.
type counters [len(counterNames)]int64

// responseFields is how many leading counters a /v1/run response body
// carries; the rest are only visible in process.
const responseFields = 6

func countersOf(s *storemlp.Stats) counters {
	h := s.Hierarchy
	return counters{
		s.Insts, s.Epochs, s.StoreMisses, s.LoadMisses, s.InstMisses, s.SMACAccelerated,
		s.OverlappedStores, s.ExposedStores,
		h.Fetches, h.FetchOffChip, h.Loads, h.LoadOffChip, h.Stores, h.StoreOffChip,
		h.StoreUpgrades, h.TLBMisses, h.L2StoreTraffic, h.L2PrefetchReqs,
		s.SMAC.Probes, s.SMAC.Hits, s.Snoops,
	}
}

func countersOfResult(r server.RunResult) counters {
	return counters{r.Insts, r.Epochs, r.StoreMisses, r.LoadMisses, r.InstMisses, r.SMACAccelerated}
}

// diffCounters names the counters among the first n that differ.
func diffCounters(want, got counters, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			out = append(out, fmt.Sprintf("%s: want %d, got %d", counterNames[i], want[i], got[i]))
		}
	}
	return out
}

// goldenSeed is the seed whose expected statistics golden.json records.
// Every other seed is held out: its golden check is skipped.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden is the recorded expectation table.
type golden struct {
	Seed int64 `json:"seed"`
	// ServeMisses is how many of the serve stream's misses the table
	// covers; the check of a later miss is skipped.
	ServeMisses int64               `json:"serve_misses"`
	Counters    []string            `json:"counters"`
	Points      map[string]counters `json:"points"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.Counters) != len(counterNames) {
		return nil, fmt.Errorf("golden.json: %d counters, want %d", len(g.Counters), len(counterNames))
	}
	for i, n := range g.Counters {
		if n != counterNames[i] {
			return nil, fmt.Errorf("golden.json: counter %d is %q, want %q", i, n, counterNames[i])
		}
	}
	return &g, nil
}

// writeGolden writes g with one point per line, keys sorted.
func writeGolden(path string, g *golden) error {
	var b bytes.Buffer
	hdr, err := json.Marshal(struct {
		Seed        int64    `json:"seed"`
		ServeMisses int64    `json:"serve_misses"`
		Counters    []string `json:"counters"`
	}{g.Seed, g.ServeMisses, g.Counters})
	if err != nil {
		return err
	}
	b.Write(hdr[:len(hdr)-1])
	b.WriteString(",\n\"points\":{\n")
	keys := make([]string, 0, len(g.Points))
	for k := range g.Points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		kj, _ := json.Marshal(k) // a string always marshals
		vj, _ := json.Marshal(g.Points[k])
		b.Write(kj)
		b.WriteByte(':')
		b.Write(vj)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// checker verifies every simulated result. A result is compared with
// the golden table when the run's seed is the golden seed, and with the
// first result seen for the same key (repeats must be identical) on
// every seed. It is safe for concurrent use.
type checker struct {
	g      *golden
	covers bool // the run's seed is the golden seed

	mu       sync.Mutex
	ref      map[string]refResult // guarded by mu
	passed   int64                // golden comparisons that matched; guarded by mu
	skipped  int64                // golden comparisons skipped (held-out seed or beyond the table); guarded by mu
	failures []string             // guarded by mu
}

// refResult is the first result seen for a key and how many of its
// leading counters are known.
type refResult struct {
	c counters
	n int
}

func newChecker(g *golden, seed int64) *checker {
	return &checker{g: g, covers: seed == g.Seed, ref: make(map[string]refResult)}
}

// check verifies one result for key: insts is the expected measured
// instruction count, n how many leading counters the result carries,
// and inTable whether the golden table should hold key. It reports
// whether the result passed.
func (c *checker) check(key string, got counters, insts int64, n int, inTable bool) bool {
	var bad []string
	if got[0] != insts {
		bad = append(bad, fmt.Sprintf("insts: want %d, got %d", insts, got[0]))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.g.Points[key]
	switch {
	case c.covers && inTable && !ok:
		bad = append(bad, "no golden entry")
	case c.covers && ok:
		if d := diffCounters(want, got, n); d != nil {
			bad = append(bad, d...)
		} else {
			c.passed++
		}
	default:
		c.skipped++
	}
	ref, ok := c.ref[key]
	if ok {
		if d := diffCounters(ref.c, got, min(n, ref.n)); d != nil {
			bad = append(bad, "differs from an earlier run of the same point")
		}
	}
	if !ok || n > ref.n {
		c.ref[key] = refResult{got, n}
	}
	if bad != nil {
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", key, bad))
		return false
	}
	return true
}

// fail records a run that produced no result.
func (c *checker) fail(key string, err error) {
	c.mu.Lock()
	c.failures = append(c.failures, fmt.Sprintf("%s: %v", key, err))
	c.mu.Unlock()
}

// tally reports the golden comparisons made and skipped, and every
// failure.
func (c *checker) tally() (passed, skipped int64, failures []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.passed, c.skipped, append([]string(nil), c.failures...)
}
