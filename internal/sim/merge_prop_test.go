package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"storemlp/internal/epoch"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// randomSplit partitions a warm+insts run at random measurement
// boundaries into k contiguous segments, shaped exactly like splitRun's
// output (segment 0 absorbs the warmup, later segments front an
// overlap prefix clamped to the stream start) but with arbitrary
// instead of even widths.
func randomSplit(rng *rand.Rand, warm, insts, overlap int64, k int) []segment {
	// k-1 distinct interior cut points across the measured range.
	cuts := map[int64]bool{}
	for len(cuts) < k-1 {
		c := 1 + rng.Int63n(insts-1)
		cuts[c] = true
	}
	offs := make([]int64, 0, k+1)
	offs = append(offs, 0)
	for c := range cuts {
		offs = append(offs, c)
	}
	offs = append(offs, insts)
	for i := range offs { // insertion sort; k is tiny
		for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
	segs := make([]segment, 0, k)
	for i := 0; i < k; i++ {
		meas := warm + offs[i]
		start := meas - overlap
		if i == 0 || start < 0 {
			start = 0
		}
		segs = append(segs, segment{start: start, meas: meas, end: warm + offs[i+1]})
	}
	return segs
}

// TestMergeAssociativityProperty is the algebraic contract behind
// parallel fan-out: per-segment Stats from a real run must merge into
// the same totals whatever the association or order, and the zero
// Stats must be the identity. Segments come from randomized (not even)
// splits so the property is exercised on uneven real data, not just
// the splits runParallel happens to produce.
func TestMergeAssociativityProperty(t *testing.T) {
	const warm, insts, overlap = 4_096, 40_960, 8_192
	spec := Spec{Workload: workload.Database(7), Uarch: uarch.Default(), Insts: insts, Warm: warm}
	pool := NewPool()
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 3; trial++ {
		k := 2 + rng.Intn(3) // 2..4 segments
		segs := randomSplit(rng, warm, insts, overlap, k)
		parts := make([]*epoch.Stats, len(segs))
		for i, sg := range segs {
			st, err := pool.runSegment(context.Background(), spec, sg, i, len(segs))
			if err != nil {
				t.Fatalf("trial %d segment %d: %v", trial, i, err)
			}
			parts[i] = st
		}

		// Identity: zero ⊕ s == s and s ⊕ zero == s.
		for i, p := range parts {
			var zero epoch.Stats
			zero.Merge(p)
			if !reflect.DeepEqual(zero, *p) {
				t.Fatalf("trial %d: zero.Merge(seg %d) != seg", trial, i)
			}
			cp := *p
			cp.Merge(&epoch.Stats{})
			if !reflect.DeepEqual(cp, *p) {
				t.Fatalf("trial %d: seg %d .Merge(zero) changed it", trial, i)
			}
		}

		// Associativity + commutativity: left fold, right fold, and a
		// shuffled-order fold must agree exactly.
		leftFold := func(ps []*epoch.Stats) epoch.Stats {
			var acc epoch.Stats
			for _, p := range ps {
				acc.Merge(p)
			}
			return acc
		}
		left := leftFold(parts)

		var right epoch.Stats
		for i := len(parts) - 1; i >= 0; i-- {
			// (p_i ⊕ accumulated-suffix): merge into a copy so the parts
			// stay pristine.
			cp := *parts[i]
			cp.Merge(&right)
			right = cp
		}
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("trial %d: left fold != right fold\nleft:  %+v\nright: %+v", trial, left, right)
		}

		shuffled := append([]*epoch.Stats(nil), parts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if perm := leftFold(shuffled); !reflect.DeepEqual(left, perm) {
			t.Fatalf("trial %d: shuffled merge order changed the result", trial)
		}

		// The merged whole must account for every measured instruction.
		if left.Insts != insts {
			t.Fatalf("trial %d: merged Insts = %d, want %d", trial, left.Insts, insts)
		}
	}
}
