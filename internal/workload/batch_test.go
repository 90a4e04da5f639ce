package workload

import (
	"reflect"
	"testing"

	"storemlp/internal/isa"
)

// TestReadBatchMatchesNext pins ReadBatch's hand-inlined copy of
// emitPlain to the one-instruction-at-a-time path: for every paper
// workload, the stream collected through ReadBatch at any block size
// equals the stream next produces.
func TestReadBatchMatchesNext(t *testing.T) {
	const n = 200_000
	for _, p := range All(1) {
		g := NewGenerator(p)
		want := make([]isa.Inst, n)
		for i := range want {
			want[i] = g.next()
		}
		for _, size := range []int{4096, 7, 1} {
			g := NewGenerator(p)
			got := make([]isa.Inst, 0, n)
			buf := make([]isa.Inst, size)
			for len(got) < n {
				k := g.ReadBatch(buf[:min(size, n-len(got))])
				if k == 0 {
					t.Fatalf("%s size %d: ReadBatch returned 0 after %d insts", p.Name, size, len(got))
				}
				got = append(got, buf[:k]...)
			}
			if !reflect.DeepEqual(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Errorf("%s size %d: first divergence at inst %d: got %+v, want %+v", p.Name, size, i, got[i], want[i])
			}
		}
	}
}
