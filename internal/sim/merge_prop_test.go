package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"storemlp/internal/epoch"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// TestMergeAssociativityProperty is the algebraic contract behind
// folding whole-run Stats, as the experiment summary's "all" row does:
// Stats from independent runs (different workloads, seeds and lengths)
// must merge into the same totals whatever the association or order,
// and the zero Stats must be the identity. Run lengths are randomized
// so the property is exercised on uneven real data.
func TestMergeAssociativityProperty(t *testing.T) {
	pool := NewPool()
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 3; trial++ {
		k := 2 + rng.Intn(3) // 2..4 runs
		parts := make([]*epoch.Stats, k)
		var insts int64
		for i := range parts {
			ws := workload.All(1 + rng.Int63n(100))
			spec := Spec{
				Workload: ws[rng.Intn(len(ws))],
				Uarch:    uarch.Default(),
				Insts:    8_192 + rng.Int63n(16_384),
				Warm:     4_096,
			}
			st, err := pool.Run(spec)
			if err != nil {
				t.Fatalf("trial %d run %d: %v", trial, i, err)
			}
			parts[i] = st
			insts += spec.Insts
		}

		// Identity: zero ⊕ s == s and s ⊕ zero == s.
		for i, p := range parts {
			var zero epoch.Stats
			zero.Merge(p)
			if !reflect.DeepEqual(zero, *p) {
				t.Fatalf("trial %d: zero.Merge(run %d) != run", trial, i)
			}
			cp := *p
			cp.Merge(&epoch.Stats{})
			if !reflect.DeepEqual(cp, *p) {
				t.Fatalf("trial %d: run %d .Merge(zero) changed it", trial, i)
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
