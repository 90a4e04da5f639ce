package main

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestScheduleReproducible(t *testing.T) {
	a := schedule(7, 20*time.Second, serveRate)
	b := schedule(7, 20*time.Second, serveRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 20*time.Second, serveRate)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
}

func TestScheduleShares(t *testing.T) {
	const window = 200 * time.Second
	arrs := schedule(3, window, serveRate)
	hot := make(map[string]bool)
	for _, p := range hotSet(3) {
		hot[p.key()] = true
	}
	var hits, misses, dups int
	missKeys := make(map[string]bool)
	var gaps []float64
	var last time.Duration
	for i, a := range arrs {
		if i > 0 && a.At < arrs[i-1].At {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a.At, i-1, arrs[i-1].At)
		}
		switch a.Kind {
		case arriveHit:
			hits++
			if !hot[a.Point.key()] {
				t.Fatalf("hit %d is not a hot-set point: %s", i, a.Point.key())
			}
		case arriveMiss:
			misses++
			k := a.Point.key()
			if hot[k] || missKeys[k] {
				t.Fatalf("miss %d repeats a point: %s", i, k)
			}
			missKeys[k] = true
		case arriveDup:
			dups++
			if !missKeys[a.Point.key()] {
				t.Fatalf("duplicate %d precedes its miss", i)
			}
			continue // not part of the Poisson stream
		}
		gaps = append(gaps, (a.At - last).Seconds())
		last = a.At
	}
	n := hits + misses
	if want := int(math.Round(serveRate * window.Seconds())); n != want {
		t.Errorf("%d arrivals, want %d", n, want)
	}
	if share := float64(hits) / float64(n); math.Abs(share-0.85) > 0.001 {
		t.Errorf("hit share %.4f, want 0.85", share)
	}
	if share := float64(dups) / float64(misses); math.Abs(share-0.10) > 0.002 {
		t.Errorf("duplicate share of misses %.4f, want 0.10", share)
	}
	// Exponential gaps: mean 1/rate and coefficient of variation 1.
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	if cv := math.Sqrt(sq/float64(len(gaps))) / mean; math.Abs(mean*serveRate-1) > 0.02 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gaps: mean %.5f s (want %.5f), cv %.3f (want 1)", mean, 1/serveRate, cv)
	}
}

func TestSchedulePrefixStable(t *testing.T) {
	missesOf := func(window time.Duration) []string {
		var keys []string
		for _, a := range schedule(5, window, serveRate) {
			if a.Kind == arriveMiss {
				keys = append(keys, a.Point.key())
			}
		}
		return keys
	}
	short, long := missesOf(10*time.Second), missesOf(30*time.Second)
	if len(short) == 0 || len(long) <= len(short) || !reflect.DeepEqual(short, long[:len(short)]) {
		t.Fatalf("the 10 s schedule's %d misses are not a prefix of the 30 s schedule's %d", len(short), len(long))
	}
}

func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = math.Round(rng.ExpFloat64()*1000) / 10 // ties included
	}
	orig := append([]float64(nil), xs...)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.1, 1, 25, 50, 75, 90, 99, 99.9, 100} {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if got, want := percentile(xs, p), sorted[rank-1]; got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !reflect.DeepEqual(xs, orig) {
		t.Error("percentile reordered its input")
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4}, 50, 4},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{3, 1, 2}, 99, 3},
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 50, 5},
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 90, 9},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestCheckerFlagsOnePerturbedCounter(t *testing.T) {
	var want counters
	for i := range want {
		want[i] = int64(1000 + i)
	}
	g := &golden{Seed: goldenSeed, Points: map[string]counters{"p": want}}
	if !newChecker(g, goldenSeed).check("p", want, want[0], len(counterNames), true) {
		t.Fatal("an exact result failed the check")
	}
	for i := range counterNames {
		got := want
		got[i]++
		chk := newChecker(g, goldenSeed)
		if chk.check("p", got, want[0], len(counterNames), true) {
			t.Errorf("a perturbed %s passed the check", counterNames[i])
			continue
		}
		if _, _, failures := chk.tally(); len(failures) != 1 || !strings.Contains(failures[0], counterNames[i]) {
			t.Errorf("perturbed %s: failures %q do not name it", counterNames[i], failures)
		}
		// A response body carries only the leading counters.
		if passed := newChecker(g, goldenSeed).check("p", got, want[0], responseFields, true); passed == (i < responseFields) {
			t.Errorf("perturbed %s, response check passed = %v", counterNames[i], passed)
		}
	}
}

func TestCheckerHeldOutSeed(t *testing.T) {
	var want counters
	want[0] = 10
	chk := newChecker(&golden{Seed: goldenSeed, Points: map[string]counters{"p": want}}, goldenSeed+1)
	got := want
	got[1] = 99 // differs from the golden seed's entry: not compared
	if !chk.check("p", got, 10, len(counterNames), true) {
		t.Fatal("a held-out seed was compared with the golden table")
	}
	if passed, skipped, _ := chk.tally(); passed != 0 || skipped != 1 {
		t.Fatalf("held-out check: %d passed, %d skipped; want 0 and 1", passed, skipped)
	}
	again := got
	again[2] = 1
	if chk.check("p", again, 10, len(counterNames), true) {
		t.Fatal("a repeat that differs from the first run passed")
	}
	if chk.check("q", got, 11, len(counterNames), true) {
		t.Fatal("a result with the wrong instruction count passed")
	}
}

func TestGoldenCoversGoldenSeed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	sweep := sweepPoints(goldenSeed)
	for _, p := range append(append(sweep, warmupPoints(sweep)...), hotSet(goldenSeed)...) {
		keys = append(keys, p.key())
	}
	for _, tp := range replayTracePoints(goldenSeed) {
		for _, k := range replayKnobs {
			keys = append(keys, replayKey(tp, k))
		}
	}
	misses := int64(0)
	for _, a := range schedule(goldenSeed, 20*time.Second, serveRate) {
		if a.Kind == arriveMiss {
			keys = append(keys, a.Point.key())
			misses++
		}
	}
	if misses > g.ServeMisses {
		t.Errorf("golden.json covers %d serve misses, a 20 s window sends %d", g.ServeMisses, misses)
	}
	for _, k := range keys {
		if _, ok := g.Points[k]; !ok {
			t.Errorf("golden.json has no entry for %s", k)
		}
	}
}

func TestRatesMedianOverBuckets(t *testing.T) {
	// Ten one-second buckets; every bucket but one completes 4 ops of
	// 500k instructions, the slow one half that: the median ignores it.
	var r gridResult
	r.window = 10 * time.Second
	for b := 0; b < 10; b++ {
		n := 4
		if b == 3 {
			n = 2
		}
		step := time.Second / time.Duration(n)
		for k := 0; k < n; k++ {
			start := time.Duration(b)*time.Second + time.Duration(k)*step
			r.ops = append(r.ops, op{start: start, end: start + step, insts: 500_000})
		}
	}
	ips, ops := r.rates()
	if math.Abs(ips-2e6) > 1 || math.Abs(ops-4) > 1e-9 {
		t.Fatalf("rates = %v inst/s, %v op/s; want 2e6 and 4", ips, ops)
	}
}

func TestTraceOverheadComparesAlternateSlices(t *testing.T) {
	// Twenty one-second slices: the even (untraced) ones complete 4 ops
	// of 500k instructions, the odd (traced) ones 2, with a drift that
	// slows the second half of the window alike for both.
	var r gridResult
	r.window = 20 * time.Second
	for b := 0; b < overheadSlices; b++ {
		n := 4
		if b%2 == 1 {
			n = 2
		}
		if b >= overheadSlices/2 {
			n *= 2
		}
		step := time.Second / time.Duration(n)
		for k := 0; k < n; k++ {
			start := time.Duration(b)*time.Second + time.Duration(k)*step
			r.ops = append(r.ops, op{start: start, end: start + step, insts: 500_000})
		}
	}
	overhead, ns := r.traceOverhead()
	if math.Abs(overhead-1) > 1e-9 || math.Abs(ns-1e9/3e6) > 1e-6 {
		t.Fatalf("traceOverhead = %v, %v ns/inst; want 1 and %v", overhead, ns, 1e9/3e6)
	}
}

func TestTracerRecordsOddSlices(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	if ref := tr.start("x", 0, 1); ref.id != 0 {
		t.Fatal("a tracer that was never turned on recorded a span")
	}
	// An hour-wide slice that started half an hour ago is slice 0, and
	// one that started an hour and a half ago is slice 1.
	tr.record(time.Now().Add(-30*time.Minute), time.Hour)
	if ref := tr.start("x", 0, 2); ref.id != 0 {
		t.Fatal("a span in an even slice was recorded")
	}
	tr.record(time.Now().Add(-90*time.Minute), time.Hour)
	ref := tr.start("x", 0, 3)
	tr.end(ref, 7)
	if d, n := tr.total("x"); ref.id == 0 || n != 7 || d < 0 {
		t.Fatalf("a span in an odd slice was not recorded: id %d, total %v/%d", ref.id, d, n)
	}
}
