// Command mlpload load-tests a running mlpsimd instance with the
// paper's Figure-2-style configuration grid and reports throughput and
// tail latency for two phases:
//
//   - cold: every request carries nocache, so each one costs a full
//     engine execution — the floor the serving layer starts from.
//   - warm: the same grid repeated through the digest cache and
//     coalescing path, where repeats become map lookups.
//
// The speedup ratio between the phases is the serving layer's win on
// repeated sweeps. Per-request latencies stream into a fixed-bucket
// histogram (internal/obs) from which the reported p50/p95/p99 are
// estimated; -json writes the measurements as a benchmark record
// (scripts/bench.sh stores it as BENCH_serve.json), including a
// per-phase stage breakdown (parse / cache_probe / pool_wait /
// simulate / ...) derived from the daemon's mlpsimd_stage_seconds
// histogram deltas around each phase. -scrape additionally validates
// the daemon's /metrics output against the Prometheus text exposition
// grammar and checks the shape of the /debug/obs/trace export (one
// named process per retained request trace); -slow-out saves the
// daemon's /debug/obs/slow listing (the slowest requests with their
// per-stage timings) as a post-run artifact.
//
// Examples:
//
//	mlpload -addr http://127.0.0.1:7743
//	mlpload -addr http://127.0.0.1:7743 -repeat 5 -concurrency 16 -json BENCH_serve.json
//	mlpload -addr http://127.0.0.1:7743 -mode warm -scrape -slow-out slow.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"storemlp/internal/obs"
	"storemlp/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mlpload: %v\n", err)
		os.Exit(1)
	}
}

// grid builds the Figure-2-style sweep: every workload crossed with
// store-prefetch policy, store-buffer size, and store-queue depth.
// The defaults give 4 x 2 x 2 x 4 = 64 points.
func grid(workloads []string, insts, warm int64) []server.RunRequest {
	prefetches := []int{0, 1}
	sbs := []int{8, 16}
	sqs := []int{16, 32, 64, 256}
	var pts []server.RunRequest
	for _, w := range workloads {
		for _, sp := range prefetches {
			for _, sb := range sbs {
				for _, sq := range sqs {
					sp, sb, sq := sp, sb, sq
					pts = append(pts, server.RunRequest{
						Workload: w,
						Insts:    insts,
						Warm:     warm,
						Config:   &server.ConfigPatch{StorePrefetch: &sp, StoreBuffer: &sb, StoreQueue: &sq},
					})
				}
			}
		}
	}
	return pts
}

// phaseStats summarizes one load phase.
type phaseStats struct {
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	ElapsedS   float64 `json:"elapsed_s"`
	Throughput float64 `json:"throughput_rps"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	Cached     int     `json:"cached"`
	Coalesced  int     `json:"coalesced"`
	// Stages decomposes the phase's server-side time by pipeline stage
	// (parse, cache_probe, pool_wait, simulate, ...), derived from the
	// daemon's mlpsimd_stage_seconds histogram deltas around the phase.
	// Absent when the server predates stage metrics or has span tracing
	// disabled.
	Stages map[string]stageAgg `json:"stages,omitempty"`
}

// stageAgg aggregates one pipeline stage over a phase.
type stageAgg struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// stageSample is one histogram's cumulative state at scrape time.
type stageSample struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// stageCounts maps stage name -> cumulative histogram state.
type stageCounts map[string]stageSample

// scrapeStages reads the per-stage latency histograms out of the
// daemon's /debug/obs/vars JSON view.
func scrapeStages(ctx context.Context, client *http.Client, base string) (stageCounts, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/obs/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/obs/vars: status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	const prefix = `mlpsimd_stage_seconds{stage="`
	out := make(stageCounts)
	for key, raw := range vars {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`)
		var h stageSample
		if err := json.Unmarshal(raw, &h); err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		out[stage] = h
	}
	return out, nil
}

// stageDelta converts a before/after scrape pair into the phase's
// stage breakdown, dropping stages that saw no traffic. A nil result
// means the server exposes no stage histograms at all.
func stageDelta(before, after stageCounts) map[string]stageAgg {
	out := make(map[string]stageAgg)
	for name, a := range after {
		b := before[name] // zero value when the stage first appeared mid-phase
		n := a.Count - b.Count
		if n <= 0 {
			continue
		}
		total := (a.Sum - b.Sum) * 1000
		out[name] = stageAgg{Count: n, TotalMS: total, MeanMS: total / float64(n)}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// formatStages renders the breakdown biggest-first for the phase line.
func formatStages(stages map[string]stageAgg) string {
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := stages[names[i]], stages[names[j]]
		if a.TotalMS > b.TotalMS {
			return true
		}
		if a.TotalMS < b.TotalMS {
			return false
		}
		return names[i] < names[j]
	})
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.1fms", n, stages[n].TotalMS)
	}
	return strings.Join(parts, " ")
}

// benchRecord is the -json output shape.
type benchRecord struct {
	Bench       string     `json:"bench"`
	GridPoints  int        `json:"grid_points"`
	Repeat      int        `json:"repeat"`
	Concurrency int        `json:"concurrency"`
	Insts       int64      `json:"insts"`
	Warm        int64      `json:"warm"`
	Cold        phaseStats `json:"cold"`
	WarmPhase   phaseStats `json:"warm_phase"`
	Speedup     float64    `json:"speedup"`
}

// latencyBuckets spans 0.2ms (cache hits) through ~26s (deep cold
// simulations) in x1.4 steps — fine enough for ~15% quantile error,
// constant memory regardless of request count.
var latencyBuckets = obs.ExpBuckets(0.0002, 1.4, 36)

// firePhase posts every request through a bounded worker pool and
// aggregates latency/throughput. Latencies stream into a fixed-bucket
// histogram, so memory stays constant however long the phase runs and
// the percentiles come from the same estimator Prometheus would apply
// to the server's own histogram.
func firePhase(ctx context.Context, client *http.Client, url string, reqs []server.RunRequest, concurrency int) (phaseStats, error) {
	jobs := make(chan []byte)
	hist := obs.NewHistogram(latencyBuckets)
	var st phaseStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error

	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range jobs {
				t0 := time.Now()
				resp, err := post(ctx, client, url, body)
				lat := time.Since(t0)
				if err == nil {
					hist.Observe(lat.Seconds())
				}
				mu.Lock()
				if err != nil {
					st.Errors++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					if resp.Cached {
						st.Cached++
					}
					if resp.Coalesced {
						st.Coalesced++
					}
				}
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	var encErr error
drain:
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			encErr = err
			break
		}
		select {
		case jobs <- b:
		case <-ctx.Done():
			encErr = ctx.Err()
			break drain
		}
	}
	close(jobs)
	wg.Wait()
	st.ElapsedS = time.Since(start).Seconds()
	if encErr != nil {
		return st, encErr
	}
	if firstErr != nil {
		return st, firstErr
	}

	st.Requests = int(hist.Count())
	if st.ElapsedS > 0 {
		st.Throughput = float64(st.Requests) / st.ElapsedS
	}
	st.P50MS = hist.Quantile(0.50) * 1000
	st.P95MS = hist.Quantile(0.95) * 1000
	st.P99MS = hist.Quantile(0.99) * 1000
	return st, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (*server.RunResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var rr server.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// fetchSlow saves the daemon's slowest-request listing — the post-run
// artifact that explains WHERE the tail latency went, request by
// request, stage by stage.
func fetchSlow(ctx context.Context, client *http.Client, base, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/obs/slow", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("GET /debug/obs/slow: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/obs/slow: status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return os.WriteFile(path, raw, 0o644)
}

// scrapeCheck validates the daemon's observability surface after the
// load phases: /metrics must parse cleanly under the Prometheus text
// exposition grammar and /debug/obs/trace must serve well-formed
// retained request traces, at least one when this invocation generated
// traffic.
func scrapeCheck(ctx context.Context, client *http.Client, base string, wantTraffic bool, stdout io.Writer) error {
	get := func(path string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		return client.Do(req)
	}

	resp, err := get("/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	fams, err := obs.ValidateExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("/metrics violates the exposition grammar: %w", err)
	}

	resp, err = get("/debug/obs/trace")
	if err != nil {
		return fmt.Errorf("GET /debug/obs/trace: %w", err)
	}
	traces, events, err := validateTraceView(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("/debug/obs/trace: %w", err)
	}
	if wantTraffic && traces == 0 {
		return fmt.Errorf("/debug/obs/trace is empty after generating traffic")
	}
	fmt.Fprintf(stdout, "scrape: %d metric families OK, %d traces with %d trace events\n", len(fams), traces, events)
	return nil
}

// validateTraceView checks the shape of the /debug/obs/trace export:
// valid Chrome trace JSON holding one process per retained request
// trace, each named by a process_name event and rooted in exactly one
// request span, with every span's parent a span of the same process.
// It returns the trace and span-event counts.
func validateTraceView(r io.Reader) (traces, events int, err error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Args struct {
				Span   *int64 `json:"span"`
				Parent *int64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("not valid trace JSON: %w", err)
	}
	named := map[int]bool{}
	roots := map[int]int{}
	spans := map[int]map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			named[ev.Pid] = ev.Name == "process_name"
			continue
		}
		if (ev.Ph != "X" && ev.Ph != "i") || ev.Dur < 0 || ev.Args.Span == nil || ev.Args.Parent == nil {
			return 0, 0, fmt.Errorf("malformed span event %+v", ev)
		}
		if spans[ev.Pid] == nil {
			spans[ev.Pid] = map[int64]bool{}
		}
		spans[ev.Pid][*ev.Args.Span] = true
		if ev.Name == "request" {
			roots[ev.Pid]++
		}
		events++
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && *ev.Args.Parent >= 0 && !spans[ev.Pid][*ev.Args.Parent] {
			return 0, 0, fmt.Errorf("pid %d: %s span's parent %d is not a span of that trace", ev.Pid, ev.Name, *ev.Args.Parent)
		}
	}
	for pid := range spans {
		if !named[pid] || roots[pid] != 1 {
			return 0, 0, fmt.Errorf("pid %d: named %v with %d request roots, want a process_name and exactly one root", pid, named[pid], roots[pid])
		}
	}
	return len(spans), events, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mlpload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:7743", "mlpsimd base URL")
		workloadCSV = fs.String("workloads", "database,tpcw,specjbb,specweb", "comma-separated workloads")
		insts       = fs.Int64("insts", 200_000, "measured instructions per point")
		warm        = fs.Int64("warm", 100_000, "warmup instructions per point")
		concurrency = fs.Int("concurrency", 8, "in-flight requests")
		repeat      = fs.Int("repeat", 3, "timed passes over the grid per phase")
		mode        = fs.String("mode", "both", "phases to run: cold, warm, or both")
		jsonPath    = fs.String("json", "", "write measurements to this file (benchmark record)")
		reqTimeout  = fs.Duration("timeout", 5*time.Minute, "per-request timeout")
		scrape      = fs.Bool("scrape", false, "after the load phases, validate /metrics against the exposition grammar and the /debug/obs/trace export")
		slowOut     = fs.String("slow-out", "", "after the load phases, write the daemon's /debug/obs/slow JSON (slowest requests with stage breakdowns) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 || *repeat < 1 {
		return fmt.Errorf("concurrency and repeat must be >= 1")
	}
	switch *mode {
	case "cold", "warm", "both":
	default:
		return fmt.Errorf("unknown mode %q (want cold, warm, or both)", *mode)
	}

	var workloads []string
	for _, w := range strings.Split(*workloadCSV, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workloads = append(workloads, w)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workloads")
	}

	base := grid(workloads, *insts, *warm)
	url := strings.TrimRight(*addr, "/") + "/v1/run"
	client := &http.Client{Timeout: *reqTimeout}

	// The server must be up before we measure anything.
	hc, err := client.Get(strings.TrimRight(*addr, "/") + "/healthz")
	if err != nil {
		return fmt.Errorf("mlpsimd not reachable at %s: %w", *addr, err)
	}
	hc.Body.Close()

	rec := benchRecord{
		Bench:      "serve",
		GridPoints: len(base),
		Repeat:     *repeat, Concurrency: *concurrency,
		Insts: *insts, Warm: *warm,
	}
	fmt.Fprintf(stdout, "grid: %d points (%s), %d passes, concurrency %d\n",
		len(base), strings.Join(workloads, ","), *repeat, *concurrency)

	baseURL := strings.TrimRight(*addr, "/")
	// timedPhase brackets a measured phase with /debug/obs/vars scrapes
	// so the stage histogram deltas attribute the phase's server-side
	// time: parse vs cache probe vs queue wait vs simulation. A server
	// without stage metrics degrades to a one-time warning, never a
	// failed load run.
	stageWarned := false
	timedPhase := func(reqs []server.RunRequest) (phaseStats, error) {
		before, errBefore := scrapeStages(ctx, client, baseURL)
		st, err := firePhase(ctx, client, url, reqs, *concurrency)
		if err != nil {
			return st, err
		}
		after, errAfter := scrapeStages(ctx, client, baseURL)
		if errBefore != nil || errAfter != nil {
			if !stageWarned {
				stageWarned = true
				scrapeErr := errBefore
				if scrapeErr == nil {
					scrapeErr = errAfter
				}
				fmt.Fprintf(stdout, "warning: stage breakdown unavailable: %v\n", scrapeErr)
			}
			return st, nil
		}
		st.Stages = stageDelta(before, after)
		return st, nil
	}

	repeated := func(nocache bool) []server.RunRequest {
		var reqs []server.RunRequest
		for pass := 0; pass < *repeat; pass++ {
			for _, r := range base {
				r.NoCache = nocache
				reqs = append(reqs, r)
			}
		}
		return reqs
	}

	if *mode == "cold" || *mode == "both" {
		st, err := timedPhase(repeated(true))
		if err != nil {
			return fmt.Errorf("cold phase: %w", err)
		}
		rec.Cold = st
		fmt.Fprintf(stdout, "cold: %d reqs in %.2fs  %.1f req/s  p50=%.1fms p95=%.1fms p99=%.1fms\n",
			st.Requests, st.ElapsedS, st.Throughput, st.P50MS, st.P95MS, st.P99MS)
		if len(st.Stages) > 0 {
			fmt.Fprintf(stdout, "cold stages: %s\n", formatStages(st.Stages))
		}
	}

	if *mode == "warm" || *mode == "both" {
		// Untimed priming pass fills the cache; the timed passes then
		// measure the steady warm state.
		if _, err := firePhase(ctx, client, url, base, *concurrency); err != nil {
			return fmt.Errorf("warm priming: %w", err)
		}
		st, err := timedPhase(repeated(false))
		if err != nil {
			return fmt.Errorf("warm phase: %w", err)
		}
		rec.WarmPhase = st
		fmt.Fprintf(stdout, "warm: %d reqs in %.2fs  %.1f req/s  p50=%.1fms p95=%.1fms p99=%.1fms  (%d cached, %d coalesced)\n",
			st.Requests, st.ElapsedS, st.Throughput, st.P50MS, st.P95MS, st.P99MS, st.Cached, st.Coalesced)
		if len(st.Stages) > 0 {
			fmt.Fprintf(stdout, "warm stages: %s\n", formatStages(st.Stages))
		}
	}

	if rec.Cold.Throughput > 0 && rec.WarmPhase.Throughput > 0 {
		rec.Speedup = rec.WarmPhase.Throughput / rec.Cold.Throughput
		fmt.Fprintf(stdout, "warm/cold speedup: %.1fx\n", rec.Speedup)
	}

	if *scrape {
		wantTraffic := rec.Cold.Requests+rec.WarmPhase.Requests > 0
		if err := scrapeCheck(ctx, client, baseURL, wantTraffic, stdout); err != nil {
			return err
		}
	}

	if *slowOut != "" {
		if err := fetchSlow(ctx, client, baseURL, *slowOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *slowOut)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return nil
}
