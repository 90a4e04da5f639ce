package workload

import "math/rand"

// randSource is math/rand's additive lagged Fibonacci generator with
// its draw methods as concrete, inlinable calls. It produces exactly
// the stream of rand.New(rand.NewSource(seed)) (Go 1 promises that
// stream never changes), so every pinned generator stream is kept,
// but the generator's several draws per instruction no longer go
// through the rand.Source interface.
//
// The stream obeys x[n] = x[n-607] + x[n-273] (mod 2^64), and vec
// holds the last 607 values in stdlib's layout: feed is where x[n-607]
// sits and is overwritten by x[n], tap is where x[n-273] sits.
// newRandSource recovers the seeded state from the stdlib source's own
// first 607 outputs by running the recurrence backwards, so no seeding
// table is copied.
type randSource struct {
	vec       [randLen]int64
	tap, feed int
}

const (
	randLen = 607
	randTap = 273

	// unitMax is the first int63 that float64(v)/(1<<63) rounds to 1.0:
	// above 2^62 a float64 steps by 1024, and 2^63-512 is the tie that
	// rounds to even, up to 2^63. math/rand's Float64 redraws there.
	unitMax = 1<<63 - 512
)

// newRandSource returns a source at the start of seed's math/rand
// stream.
func newRandSource(seed int64) randSource {
	std := rand.NewSource(seed).(rand.Source64)
	var first [randLen]uint64
	for i := range first {
		first[i] = std.Uint64()
	}
	var s randSource
	s.load(&first)
	return s
}

// Seed implements rand.Source.
func (s *randSource) Seed(seed int64) { *s = newRandSource(seed) }

// load sets s so that its next randLen Uint64 draws are first. Running
// x[n-607] = x[n] - x[n-273] from n = 606 down to 0 yields the 607
// values before the first, each term either given or already
// recovered; they go where stdlib keeps them after seeding (x[k-607]
// at position (333-k) mod 607, with tap at 0 and feed at 334).
func (s *randSource) load(first *[randLen]uint64) {
	// pos is the slot of x[k-607]; x(n) is x[n] for n in [-607, 606].
	pos := func(k int) int { return (2*randLen - randTap - 1 - k) % randLen }
	x := func(n int) uint64 {
		if n >= 0 {
			return first[n]
		}
		return uint64(s.vec[pos(n+randLen)])
	}
	for n := randLen - 1; n >= 0; n-- {
		s.vec[pos(n)] = int64(x(n) - x(n-randTap))
	}
	s.tap = 0
	s.feed = randLen - randTap
}

// Uint64 returns the next raw 64-bit value of the stream.
//
//storemlp:noalloc //storemlp:inline
func (s *randSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap = randLen - 1
	}
	s.feed--
	if s.feed < 0 {
		s.feed = randLen - 1
	}
	s.vec[s.feed] += s.vec[s.tap]
	return uint64(s.vec[s.feed])
}

// Int63 is math/rand's Int63. It implements rand.Source.
//
//storemlp:noalloc //storemlp:inline
func (s *randSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// unit returns the int63 behind the next Float64: the first draw below
// unitMax. Float64() < p holds exactly when unit() < threshold(p), so
// hot paths compare integers instead of dividing.
//
//storemlp:noalloc //storemlp:inline
func (s *randSource) unit() int64 {
	for {
		if v := s.Int63(); v < unitMax {
			return v
		}
	}
}

// Float64 is math/rand's Float64, including its redraw of the values
// that round to 1.0.
//
//storemlp:noalloc //storemlp:inline
func (s *randSource) Float64() float64 { return float64(s.unit()) / (1 << 63) }

// Int63n is math/rand's Int63n for n > 0, with the power-of-two case
// folded in: its rejection bound is 2^63-1, so the one draw is always
// kept, and v % n equals stdlib's v & (n-1) for v >= 0.
//
//storemlp:noalloc //storemlp:inline
func (s *randSource) Int63n(n int64) int64 {
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	for {
		if v := s.Int63(); v <= max {
			return v % n
		}
	}
}

// Intn is math/rand's Intn for 0 < n <= 1<<31-1, the only range the
// generator draws from, where math/rand takes Int31n; the power-of-two
// case is folded in as in Int63n.
//
//storemlp:noalloc //storemlp:inline
func (s *randSource) Intn(n int) int {
	m := uint32(n)
	max := 1<<31 - 1 - (1<<31)%m
	for {
		if v := uint32(s.Uint64() << 1 >> 33); v <= max { // Int63() >> 32
			return int(v % m)
		}
	}
}

// threshold returns the bound t with unit() < t exactly when
// math/rand's Float64() < p: the smallest int63 i with
// float64(i)/(1<<63) >= p, or unitMax when no accepted draw reaches p.
// The map from i to float64(i)/(1<<63) is monotone, so a binary search
// finds it.
func threshold(p float64) int64 {
	if !(p > 0) { // also NaN: Float64() < NaN never holds
		return 0
	}
	lo, hi := int64(0), int64(unitMax)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
