package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Serve: the service under independent users.
const (
	serveInsts = 200_000
	serveWarm  = 100_000

	// serveRate is the open-loop arrival rate. At about 45 ms of core
	// time per miss and a 15% miss share, it keeps about 20% of two
	// cores busy simulating. Higher loads amplify the host's speed
	// drift: when both cores are busy, hits wait for preemption and
	// misses queue, so a 15% slower host moved p50_ms and p99_ms by
	// 30-80% at 120 requests/s. It is fixed, not scaled by the core
	// count, so a seed names the same request stream on every host.
	serveRate = 60.0
	// dupDelay is how long after a miss its duplicate is sent: while
	// the first copy is still simulating, so the two coalesce.
	dupDelay = 2 * time.Millisecond

	// goodputLimit is the latency limit behind goodput_rps.
	goodputLimit = 250 * time.Millisecond
	// lateLimit is the load generator's own bound: a serve run whose
	// p99 send lateness exceeds it is flagged invalid.
	lateLimit = 10 * time.Millisecond
)

// serveHotKnobs and the paper workloads span the hot set: 16 points
// warmed into the service's result cache during setup.
var serveHotKnobs = []knobs{
	defaultKnobs,
	{Prefetch: 0, SB: 16, SQ: 32},
	{Prefetch: 2, SB: 16, SQ: 32},
	{WC: true, Prefetch: 1, SB: 16, SQ: 32},
}

// serveMissKnobs are Figure-2 store prefetch x store buffer x store
// queue cells; never-seen points draw their configuration from them.
var serveMissKnobs = func() []knobs {
	var ks []knobs
	for sp := 0; sp <= 2; sp++ {
		for _, sb := range []int{8, 16, 32} {
			for _, sq := range []int{16, 32, 64} {
				ks = append(ks, knobs{Prefetch: sp, SB: sb, SQ: sq})
			}
		}
	}
	return ks
}()

// hotSet is the serve workload's hot set at seed.
func hotSet(seed int64) []point {
	var ps []point
	for _, w := range paperWorkloads {
		for _, k := range serveHotKnobs {
			ps = append(ps, point{Workload: w, Seed: seed, Knobs: k, Insts: serveInsts, Warm: serveWarm})
		}
	}
	return ps
}

// arrivalKind classifies a scheduled request by what the service should
// do with it.
type arrivalKind uint8

const (
	arriveHit  arrivalKind = iota // repeats a hot-set point: cache hit
	arriveMiss                    // a never-seen point: full pipeline
	arriveDup                     // re-sends an in-flight miss: coalesces
)

// arrival is one scheduled request.
type arrival struct {
	At    time.Duration // send time, from the window start
	Kind  arrivalKind
	Point point
	Miss  int64 // for a miss or its duplicate: the miss's ordinal in the stream
}

// Stratification blocks: every block of hitBlock arrivals holds exactly
// hitBlockMisses misses, and every block of dupBlock misses exactly one
// duplicate, so each seed offers the same load and the same mix.
const (
	hitBlock       = 20 // with hitBlockMisses, a hitShare of 17/20
	hitBlockMisses = 3
	dupBlock       = 10 // a dupShare of 1/10
)

// patternSeed draws the serve workload's arrival pattern: the send
// times and which requests are misses or duplicates.
const patternSeed = 0x7ad15c

// schedule draws the serve workload's request stream. The pattern is one
// fixed draw: round(rate x window) send times uniform over the window —
// a Poisson process conditioned on its count — with a hitShare of the
// requests repeating the hot set, the rest never-seen points, and a
// dupShare of those re-sent dupDelay after the first copy. seed picks
// the requests' points. p99_ms sits among the misses that queue behind
// a burst of misses, so a pattern that varied with the seed would move
// it by 15% between seeds; fixed, every seed and every commit meet the
// same bursts. The stream is prefix-stable: a longer window appends
// requests.
func schedule(seed int64, window time.Duration, rate float64) []arrival {
	n := int(math.Round(rate * window.Seconds()))
	at := make([]time.Duration, n)
	times := rand.New(rand.NewSource(patternSeed))
	for i := range at {
		at[i] = time.Duration(times.Int63n(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })

	slots := rand.New(rand.NewSource(patternSeed + 1)) // drawn apart from the times, which depend on window
	seq := rand.New(rand.NewSource(seed))
	hot := hotSet(seed)
	out := make([]arrival, 0, n+n/dupBlock)
	var missBlock []bool // which slots of the current block are misses
	var dupSlot, misses int64
	for i := 0; i < n; i++ {
		if i%hitBlock == 0 {
			missBlock = make([]bool, hitBlock)
			for _, j := range slots.Perm(hitBlock)[:hitBlockMisses] {
				missBlock[j] = true
			}
		}
		if !missBlock[i%hitBlock] {
			out = append(out, arrival{At: at[i], Kind: arriveHit, Point: hot[seq.Intn(len(hot))]})
			continue
		}
		if misses%dupBlock == 0 {
			dupSlot = slots.Int63n(dupBlock)
		}
		p := point{
			Workload: paperWorkloads[seq.Intn(len(paperWorkloads))],
			Seed:     missSeed(seed, misses),
			Knobs:    serveMissKnobs[seq.Intn(len(serveMissKnobs))],
			Insts:    serveInsts,
			Warm:     serveWarm,
		}
		out = append(out, arrival{At: at[i], Kind: arriveMiss, Point: p, Miss: misses})
		if misses%dupBlock == dupSlot {
			out = append(out, arrival{At: at[i] + dupDelay, Kind: arriveDup, Point: p, Miss: misses})
		}
		misses++
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// missSeed is the generator seed of the i-th never-seen point: distinct
// from the hot set's seed and from every other miss of the run.
func missSeed(seed, i int64) int64 { return seed*1_000_000 + 1 + i }
