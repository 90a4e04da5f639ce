package workload

import (
	"math"
	"math/rand"
	"testing"
)

// randPair is the concrete source next to math/rand seeded the same
// way, each with an ExpFloat64 wrapper over its own state.
type randPair struct {
	src    randSource
	srcExp *rand.Rand
	std    *rand.Rand
}

func newRandPair(seed int64) *randPair {
	p := &randPair{src: newRandSource(seed), std: rand.New(rand.NewSource(seed))}
	p.srcExp = rand.New(&p.src)
	return p
}

// step makes one call of method op%numRandOps on both sides and
// reports a mismatch.
func (p *randPair) step(t testing.TB, op byte) {
	t.Helper()
	var got, want any
	switch op % numRandOps {
	case 0:
		got, want = p.src.Int63(), p.std.Int63()
	case 1:
		got, want = p.src.Uint64(), p.std.Uint64()
	case 2:
		got, want = p.src.Float64(), p.std.Float64()
	case 3:
		got, want = p.src.Intn(4096), p.std.Intn(4096)
	case 4:
		got, want = p.src.Intn(8), p.std.Intn(8)
	case 5:
		got, want = p.src.Intn(1000), p.std.Intn(1000) // rejects some draws
	case 6:
		got, want = p.src.Intn(3<<29), p.std.Intn(3<<29) // rejects a quarter
	case 7:
		got, want = p.src.Int63n(1<<20), p.std.Int63n(1<<20)
	case 8:
		got, want = p.src.Int63n(3<<61), p.std.Int63n(3<<61) // rejects a quarter
	case 9:
		got, want = p.src.Int63n(1000), p.std.Int63n(1000)
	case 10:
		got, want = p.srcExp.ExpFloat64(), p.std.ExpFloat64()
	case 11:
		// The integer-threshold path: one unit draw against a
		// threshold and the Float64 draw it stands for.
		const prob = 0.3
		got, want = p.src.unit() < tALUDep, p.std.Float64() < prob
	}
	if got != want {
		t.Fatalf("op %d: got %v, want %v", op%numRandOps, got, want)
	}
}

const numRandOps = 12

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40, 1<<31 + 12345, 89482311} {
		p := newRandPair(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 100_000; i++ {
			p.step(t, byte(rng.Intn(numRandOps)))
		}
		// A long run of one method at a time crosses the ring's wrap
		// points in every phase.
		for op := byte(0); op < numRandOps; op++ {
			for i := 0; i < 2*randLen; i++ {
				p.step(t, op)
			}
		}
	}
}

// TestSourceSeedReseeds checks the rand.Source Seed method restarts the
// stream, as rand.Rand.Seed would.
func TestSourceSeedReseeds(t *testing.T) {
	s := newRandSource(3)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(42)
	std := rand.NewSource(42).(rand.Source64)
	for i := 0; i < 2*randLen; i++ {
		if got, want := s.Uint64(), std.Uint64(); got != want {
			t.Fatalf("draw %d after Seed: got %#x, want %#x", i, got, want)
		}
	}
}

// scripted is a rand.Source returning fixed Int63 values, so a test can
// put math/rand at an exact boundary.
type scripted struct{ vals []int64 }

func (s *scripted) Int63() int64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *scripted) Seed(int64) {}

// scriptedSource returns a randSource whose next Int63 draws are vals.
func scriptedSource(vals ...int64) *randSource {
	var first [randLen]uint64
	for i, v := range vals {
		first[i] = uint64(v)
	}
	s := &randSource{}
	s.load(&first)
	return s
}

// TestFloat64RetryBoundary pins the one value math/rand's Float64
// rejects: 2^63-513 still rounds below 1.0 and is kept, 2^63-512 rounds
// to 1.0 and is redrawn, on both math/rand and the concrete source's
// Float64 and integer-threshold paths.
func TestFloat64RetryBoundary(t *testing.T) {
	const kept, redrawn = unitMax - 1, unitMax
	if unitMax != 1<<63-512 {
		t.Fatalf("unitMax = %d", int64(unitMax))
	}
	if f := float64(kept) / (1 << 63); f >= 1 {
		t.Errorf("float64(2^63-513)/2^63 = %v, want < 1", f)
	}
	if f := float64(redrawn) / (1 << 63); f != 1 {
		t.Errorf("float64(2^63-512)/2^63 = %v, want 1", f)
	}

	std := rand.New(&scripted{vals: []int64{redrawn, kept, redrawn, math.MaxInt64, 5}})
	want := float64(kept) / (1 << 63)
	if got := std.Float64(); got != want {
		t.Errorf("math/rand Float64 = %v, want %v (the kept value after one redraw)", got, want)
	}
	if got := std.Float64(); got != 5.0/(1<<63) {
		t.Errorf("math/rand second Float64 = %v, want the draw after two redraws", got)
	}

	src := scriptedSource(redrawn, kept, redrawn, math.MaxInt64, 5)
	if got := src.Float64(); got != want {
		t.Errorf("Float64 = %v, want %v", got, want)
	}
	if got := src.Float64(); got != 5.0/(1<<63) {
		t.Errorf("second Float64 = %v, want the draw after two redraws", got)
	}

	src = scriptedSource(redrawn, kept, redrawn, math.MaxInt64, 5)
	if got := src.unit(); got != kept {
		t.Errorf("unit = %d, want %d", got, int64(kept))
	}
	if got := src.unit(); got != 5 {
		t.Errorf("second unit = %d, want 5", got)
	}
	// p = 1: Float64() < 1 always holds, so every kept draw is below.
	if tr := threshold(1); tr != unitMax {
		t.Errorf("threshold(1) = %d, want unitMax", tr)
	}
}

// TestRejectionBoundaries puts Intn's and Int63n's rejection loops at
// their bound on scripted draws: the largest kept value and the
// smallest redrawn one, on math/rand and the concrete source alike.
func TestRejectionBoundaries(t *testing.T) {
	for _, n := range []int{1000, 3 << 29, 7} {
		max := int64(1<<31 - 1 - (1<<31)%n)
		vals := []int64{(max + 1) << 32, max << 32, (max + 1) << 32, 12345 << 32}
		std := rand.New(&scripted{vals: append([]int64(nil), vals...)})
		src := scriptedSource(vals...)
		for i := 0; i < 2; i++ {
			if got, want := src.Intn(n), std.Intn(n); got != want {
				t.Errorf("Intn(%d) call %d = %d, want %d", n, i, got, want)
			}
		}
	}
	for _, n := range []int64{3 << 61, 1000, 1 << 40} {
		max := int64(1<<63 - 1 - (1<<63)%uint64(n))
		vals := []int64{max, 12345}
		if max < math.MaxInt64 {
			vals = []int64{max + 1, max, max + 1, 12345}
		}
		std := rand.New(&scripted{vals: append([]int64(nil), vals...)})
		src := scriptedSource(vals...)
		for i := 0; i < 2; i++ {
			if got, want := src.Int63n(n), std.Int63n(n); got != want {
				t.Errorf("Int63n(%d) call %d = %d, want %d", n, i, got, want)
			}
		}
	}
}

// TestThresholdBoundaries checks every probability the generator
// compares through a threshold at T-1 and T against math/rand's own
// Float64 on a scripted source: the draw T-1 falls below p and T does
// not.
func TestThresholdBoundaries(t *testing.T) {
	type prob struct {
		name string
		p    float64
		t    int64
	}
	probs := []prob{
		{"not-taken", 0.02, tNotTaken},
		{"taken", 0.98, tTaken},
		{"alu-dep", 0.3, tALUDep},
		{"zero", 0, threshold(0)},
		{"negative", -1, threshold(-1)},
		{"nan", math.NaN(), threshold(math.NaN())},
		{"one", 1, threshold(1)},
		{"tiny", 1e-300, threshold(1e-300)},
		{"just-below-one", math.Nextafter(1, 0), threshold(math.Nextafter(1, 0))},
	}
	for _, p := range All(1) {
		g := NewGenerator(p)
		pStore, pLoad, pBranch := p.StorePer100/100, p.LoadPer100/100, p.BranchPer100/100
		probs = append(probs,
			prob{p.Name + "/store", pStore, g.tStore},
			prob{p.Name + "/load", pStore + pLoad, g.tLoad},
			prob{p.Name + "/branch", pStore + pLoad + pBranch, g.tBranch},
			prob{p.Name + "/dep-load", p.DepLoadFrac, g.tDepLoad},
		)
		scatter, preLock, loadBurst := burstProbs(p)
		probs = append(probs,
			prob{p.Name + "/scatter-burst", scatter, g.tScatterBurst},
			prob{p.Name + "/pre-lock-burst", preLock, g.tPreBurst},
			prob{p.Name + "/load-burst", loadBurst, g.tLoadBurst},
		)
		if scatter <= 0 || preLock <= 0 || loadBurst <= 0 {
			t.Errorf("%s: a burst probability is 0: scatter %v, pre-lock %v, load %v",
				p.Name, scatter, preLock, loadBurst)
		}
	}
	below := func(v int64, p float64) bool {
		return rand.New(&scripted{vals: []int64{v}}).Float64() < p
	}
	for _, pr := range probs {
		if pr.t < 0 || pr.t > unitMax {
			t.Errorf("%s: threshold %d out of [0, unitMax]", pr.name, pr.t)
			continue
		}
		if pr.t > 0 && !below(pr.t-1, pr.p) {
			t.Errorf("%s: Float64 of T-1 = %d is not below %v", pr.name, pr.t-1, pr.p)
		}
		if pr.t < unitMax && below(pr.t, pr.p) {
			t.Errorf("%s: Float64 of T = %d is below %v", pr.name, pr.t, pr.p)
		}
	}
}

// FuzzSourceMatchesMathRand drives the concrete source and math/rand
// from one seed through an arbitrary script of calls.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(-7), []byte{10, 10, 10, 2, 2, 5, 8, 8})
	f.Add(int64(1<<40), []byte{6, 6, 6, 6, 9, 9, 11, 11})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		p := newRandPair(seed)
		// Repeat the script so short inputs still cross the ring's wrap.
		for len(script) > 0 && len(script) < 4*randLen {
			script = append(script, script...)
		}
		for _, op := range script {
			p.step(t, op)
		}
	})
}
