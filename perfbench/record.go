package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"storemlp"
)

// recordGolden simulates, in process, every point the three workloads
// run at the golden seed — the serve schedule up to serveWindow — and
// writes their statistics to path. Run it after a change that is meant
// to alter simulated results, and review the diff.
func recordGolden(ctx context.Context, path string, serveWindow time.Duration) error {
	const seed = goldenSeed
	g := &golden{
		Seed:     seed,
		Counters: counterNames[:],
		Points:   make(map[string]counters),
	}
	var synth []point
	sweep := sweepPoints(seed)
	synth = append(synth, sweep...)
	synth = append(synth, warmupPoints(sweep)...)
	synth = append(synth, hotSet(seed)...)
	for _, a := range schedule(seed, serveWindow, serveRate) {
		if a.Kind == arriveMiss {
			synth = append(synth, a.Point)
			g.ServeMisses++
		}
	}

	var mu sync.Mutex
	var firstErr error
	put := func(key string, st *storemlp.Stats, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", key, err)
		}
		if err == nil {
			g.Points[key] = countersOf(st)
		}
	}
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for _, p := range synth {
		wg.Add(1)
		sem <- struct{}{}
		go func(p point) {
			defer wg.Done()
			defer func() { <-sem }()
			spec, err := p.spec()
			if err != nil {
				put(p.key(), nil, err)
				return
			}
			st, err := storemlp.RunContext(ctx, spec)
			put(p.key(), st, err)
		}(p)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	dir := filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-record-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, tp := range replayTracePoints(seed) {
		tpath, err := writeTrace(dir, tp)
		if err != nil {
			return err
		}
		for _, k := range replayKnobs {
			st, err := storemlp.RunTraceFileContext(ctx, tpath, k.config(), tp.Warm)
			put(replayKey(tp, k), st, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Printf("recorded %d points\n", len(g.Points))
	return writeGolden(path, g)
}
