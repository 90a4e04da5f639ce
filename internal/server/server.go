// Package server implements mlpsimd's HTTP JSON serving layer: a
// long-running simulation service in front of the epoch MLP engine.
//
// The request path for one sweep point is
//
//	digest -> result table -> worker pool -> engine
//
// Every run is identified by the canonical digest of its full
// specification (workload calibration + machine configuration +
// instruction budget, see internal/digest). One digest-keyed result
// table holds both running and finished runs: a request for a digest
// that is running joins that execution, one for a finished digest is
// served from the table's size-bounded LRU, and only an absent digest
// executes. The worker pool bounds concurrent
// simulations to the configured width (default GOMAXPROCS) so a burst
// of requests queues instead of thrashing the scheduler. Requests honor
// client disconnects and per-request deadlines through context
// cancellation threaded into the engine's instruction loop, and the
// daemon drains in-flight simulations on shutdown.
//
// Observability is built on internal/obs: /metrics serves the shared
// registry in Prometheus text format (request counts and latencies,
// cache hit ratio, pool saturation, engine throughput), /debug/obs/vars
// serves the same registry as JSON, /debug/obs/trace exports the
// retained slow-request span trees (engine batches and fold included)
// as Chrome trace_event JSON, /debug/obs/runs lists the live progress
// of the traced requests running the engine (one entry per request, a
// sweep's points summed), /healthz serves a liveness summary, and
// every request is logged with a request ID, duration, cache state and
// outcome. DESIGN.md §9 and §12 have the full inventory.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"storemlp/internal/consistency"
	"storemlp/internal/digest"
	"storemlp/internal/epoch"
	"storemlp/internal/obs"
	"storemlp/internal/sim"
	"storemlp/internal/uarch"
	"storemlp/internal/workload"
)

// Runner executes one resolved simulation. The default runner is
// sim.RunContext, which leases its engine from the process-wide free
// list; tests substitute counters.
type Runner func(ctx context.Context, spec sim.Spec) (*epoch.Stats, error)

// Config configures the service.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// CacheEntries sizes the result LRU (default 4096; <0 disables).
	CacheEntries int
	// MaxInsts caps Insts+Warm per request (default 100M) so one request
	// cannot monopolize the service.
	MaxInsts int64
	// DefaultTimeout bounds each request when the client sends none
	// (default 120s; <=0 keeps the default).
	DefaultTimeout time.Duration
	// Runner substitutes the simulation executor (tests); nil =
	// sim.RunContext.
	Runner Runner
	// Logger receives structured request logs; nil = slog.Default().
	Logger *slog.Logger
	// TraceEvents caps the engine-detail spans (instruction batches,
	// fold, window_grow, measure_start) one request trace may hold
	// (default 384, clamped to the arena's reqSpanCap-128 so request
	// stages always keep 128 slots; excess spans count as dropped).
	// <0 records no engine detail — the engine hot path then pays only
	// a nil check. Request stages follow SlowRequests.
	TraceEvents int
	// Deprecated: DefaultParallel has no effect. Intra-run segment
	// fan-out was removed; every run executes serially. The field is
	// kept only so existing callers still compile.
	DefaultParallel int
	// SlowRequests sizes the slowest-N request ring behind
	// /debug/obs/slow and /debug/obs/req (default 32; <0 disables
	// request-scoped span tracing entirely — probe-grade overhead for
	// every request, and the debug endpoints serve empty/404). The
	// request trace also carries its runs' live progress, so with
	// tracing off /debug/obs/runs stays empty too.
	SlowRequests int
}

// reqSpanCap bounds the span arena of one request trace. A /v1/run
// request records ~10 request-stage spans plus its engine detail
// (bounded by TraceEvents); a sweep records a handful per point, so
// very large sweeps drop excess spans (counted in the trace's dropped
// field) rather than growing the arena.
const reqSpanCap = 512

// maxDetailSpans is the largest TraceEvents value: the arena slots left
// once 128 are reserved for request stages. The default detail cap
// equals it, which holds the 366 batches of a 1.5M-instruction run.
const maxDetailSpans = reqSpanCap - 128

// Server is the mlpsimd service core. Create with New, mount Handler
// into an http.Server, and Close when the HTTP server has shut down.
type Server struct {
	cfg    Config
	log    *slog.Logger
	runner Runner

	baseCtx context.Context
	stop    context.CancelFunc

	results *resultTable
	slots   chan struct{}

	start  time.Time
	reqSeq atomic.Int64

	// Metrics is the service registry (internal/obs), exported for
	// /metrics mounting and for tests.
	Metrics *obs.Registry

	board *obs.Board
	slow  *obs.SlowRing // nil when span tracing is disabled

	mReqs         map[string]map[string]*obs.Counter // endpoint -> class -> counter
	mLatency      map[string]*obs.Histogram
	mStage        []*obs.Histogram // indexed by obs.Stage; nil at StageRequest
	mCacheHits    *obs.Counter
	mCacheMisses  *obs.Counter
	mCacheEvicted *obs.Counter
	mCacheEntries *obs.Gauge
	mHitRatio     *obs.FloatGauge
	mCoalesced    *obs.Counter
	mInflight     *obs.Gauge
	mQueueDepth   *obs.Gauge
	mSaturation   *obs.FloatGauge
	mPoolIdle     *obs.Gauge
	mExecuted     *obs.Counter
	mFailures     *obs.Counter
	mInsts        *obs.Counter
	mEpochs       *obs.Counter
	mInstsRate    *obs.FloatGauge
	mEpochsRate   *obs.FloatGauge
	mUptime       *obs.Gauge

	// Scrape-to-scrape throughput derivation (see scrapeRates).
	rateMu     sync.Mutex
	rateAt     time.Time // guarded by rateMu
	rateInsts  int64     // guarded by rateMu
	rateEpochs int64     // guarded by rateMu
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxInsts <= 0 {
		cfg.MaxInsts = 100_000_000
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 120 * time.Second
	}
	if cfg.Runner == nil {
		cfg.Runner = sim.RunContext
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.TraceEvents == 0 || cfg.TraceEvents > maxDetailSpans {
		cfg.TraceEvents = maxDetailSpans
	}
	if cfg.SlowRequests == 0 {
		cfg.SlowRequests = 32
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		runner:  cfg.Runner,
		baseCtx: ctx,
		stop:    cancel,
		slots:   make(chan struct{}, cfg.Workers),
		start:   time.Now(),
		Metrics: obs.NewRegistry(),
		board:   obs.NewBoard(),
		slow:    obs.NewSlowRing(cfg.SlowRequests), // nil when SlowRequests < 0
	}
	s.registerMetrics()
	s.results = newResultTable(ctx, max(cfg.CacheEntries, 0), s.mCacheEvicted, s.mCacheEntries)
	return s
}

func (s *Server) registerMetrics() {
	m := s.Metrics
	s.mReqs = make(map[string]map[string]*obs.Counter)
	s.mLatency = make(map[string]*obs.Histogram)
	for _, ep := range []string{"run", "sweep", "healthz", "metrics", "debug"} {
		byClass := make(map[string]*obs.Counter)
		for _, class := range []string{"2xx", "4xx", "5xx"} {
			byClass[class] = m.Counter("mlpsimd_requests_total",
				"HTTP requests by endpoint and status class.",
				"endpoint", ep, "class", class)
		}
		s.mReqs[ep] = byClass
		s.mLatency[ep] = m.Histogram("mlpsimd_request_seconds",
			"Request latency in seconds.", obs.DefBuckets, "endpoint", ep)
	}
	// Per-stage decomposition of request latency: each request's span
	// tree feeds one observation per span, so mlpsimd_request_seconds
	// splits into queue wait vs cache state vs simulation.
	stages := obs.Stages()
	s.mStage = make([]*obs.Histogram, len(stages))
	for _, st := range stages {
		if st == obs.StageRequest || st.Detail() {
			continue // the root span IS mlpsimd_request_seconds; engine detail nests inside simulate
		}
		s.mStage[st] = m.Histogram("mlpsimd_stage_seconds",
			"Request latency decomposed by pipeline stage (one observation per request span).",
			obs.DefBuckets, "stage", st.String())
	}
	s.mCacheHits = m.Counter("mlpsimd_cache_hits_total", "Result-cache hits.")
	s.mCacheMisses = m.Counter("mlpsimd_cache_misses_total", "Result-cache misses.")
	s.mCacheEvicted = m.Counter("mlpsimd_cache_evictions_total", "Result-cache LRU evictions.")
	s.mCacheEntries = m.Gauge("mlpsimd_cache_entries", "Result-cache current size.")
	s.mHitRatio = m.FloatGauge("mlpsimd_cache_hit_ratio",
		"Lifetime result-cache hit ratio: hits / (hits + misses).")
	s.mCoalesced = m.Counter("mlpsimd_coalesced_requests_total",
		"Requests that joined an identical in-flight simulation instead of executing.")
	s.mInflight = m.Gauge("mlpsimd_sims_inflight", "Simulations currently executing.")
	s.mQueueDepth = m.Gauge("mlpsimd_queue_depth", "Simulations waiting for a worker slot.")
	s.mSaturation = m.FloatGauge("mlpsimd_pool_saturation",
		"Fraction of worker capacity occupied: simulations in flight / workers.")
	s.mPoolIdle = m.Gauge("mlpsimd_pool_engines_idle",
		"Recycled engines parked in the process-wide engine free list.")
	s.mExecuted = m.Counter("mlpsimd_sims_executed_total", "Engine executions started.")
	s.mFailures = m.Counter("mlpsimd_sim_failures_total", "Engine executions that returned an error.")
	s.mInsts = m.Counter("mlpsimd_insts_simulated_total", "Instructions simulated (measured + warmup).")
	s.mEpochs = m.Counter("mlpsimd_engine_epochs_total", "Epochs closed by completed simulations.")
	s.mInstsRate = m.FloatGauge("mlpsimd_engine_insts_per_second",
		"Simulated-instruction throughput over the last scrape interval.")
	s.mEpochsRate = m.FloatGauge("mlpsimd_engine_epochs_per_second",
		"Epoch throughput over the last scrape interval.")
	s.mUptime = m.Gauge("mlpsimd_uptime_seconds", "Seconds since process start.")
	m.Info("mlpsimd_build_info", "Build identity of the serving binary.",
		"go_version", runtime.Version(), "module", "storemlp")
	m.Info("mlpsimd_config_info", "Effective serving configuration and its canonical digest.",
		"workers", strconv.Itoa(s.cfg.Workers),
		"cache_entries", strconv.Itoa(s.cfg.CacheEntries),
		"max_insts", strconv.FormatInt(s.cfg.MaxInsts, 10),
		"trace_events", strconv.Itoa(s.cfg.TraceEvents),
		"slow_requests", strconv.Itoa(s.cfg.SlowRequests),
		"digest", digest.Sum(struct {
			Workers, CacheEntries, TraceEvents, SlowRequests int
			MaxInsts, DefaultTimeoutMS                       int64
		}{s.cfg.Workers, s.cfg.CacheEntries, s.cfg.TraceEvents,
			s.cfg.SlowRequests, s.cfg.MaxInsts, s.cfg.DefaultTimeout.Milliseconds()}))
	m.OnScrape(func() {
		s.mUptime.Set(int64(time.Since(s.start).Seconds()))
		if hits, misses := s.mCacheHits.Value(), s.mCacheMisses.Value(); hits+misses > 0 {
			s.mHitRatio.Set(float64(hits) / float64(hits+misses))
		}
		s.mSaturation.Set(float64(s.mInflight.Value()) / float64(s.cfg.Workers))
		s.mPoolIdle.Set(int64(sim.IdleEngines()))
		s.scrapeRates()
	})
}

// scrapeRates derives engine throughput gauges from the instruction and
// epoch counter deltas since the previous scrape. The first scrape
// establishes the baseline and reports 0.
func (s *Server) scrapeRates() {
	now := time.Now()
	insts, epochs := s.mInsts.Value(), s.mEpochs.Value()
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	if !s.rateAt.IsZero() {
		if dt := now.Sub(s.rateAt).Seconds(); dt > 0 {
			s.mInstsRate.Set(float64(insts-s.rateInsts) / dt)
			s.mEpochsRate.Set(float64(epochs-s.rateEpochs) / dt)
		}
	}
	s.rateAt, s.rateInsts, s.rateEpochs = now, insts, epochs
}

// WriteTrace writes the /debug/obs/trace view — every retained slow
// request's span tree as Chrome trace_event JSON — for CLIs that dump
// it at shutdown. Disabled span tracing writes a valid empty trace.
func (s *Server) WriteTrace(w io.Writer) error { return s.slow.WriteChrome(w) }

// Close aborts any still-running simulations. Call it after the HTTP
// server has drained (http.Server.Shutdown), not before.
func (s *Server) Close() { s.stop() }

// ---- request / response types ----

// ConfigPatch is a partial machine configuration: nil fields keep the
// paper's §4.3 defaults. It covers every knob the paper's figures
// sweep.
type ConfigPatch struct {
	Model                   *string `json:"model,omitempty"`          // "pc" | "wc"
	StorePrefetch           *int    `json:"store_prefetch,omitempty"` // 0, 1, 2
	StoreBuffer             *int    `json:"store_buffer,omitempty"`
	StoreQueue              *int    `json:"store_queue,omitempty"` // 0 = unbounded
	ROB                     *int    `json:"rob,omitempty"`
	CoalesceBytes           *int    `json:"coalesce_bytes,omitempty"`
	SLE                     *bool   `json:"sle,omitempty"`
	TM                      *bool   `json:"tm,omitempty"`
	PrefetchPastSerializing *bool   `json:"pps,omitempty"`
	HWS                     *int    `json:"hws,omitempty"` // -1 off, 0..2
	SMACEntries             *int    `json:"smac_entries,omitempty"`
	Nodes                   *int    `json:"nodes,omitempty"`
	MissPenalty             *int    `json:"miss_penalty,omitempty"`
	PerfectStores           *bool   `json:"perfect_stores,omitempty"`
}

// apply overlays the patch on cfg and returns the result.
func (p *ConfigPatch) apply(cfg uarch.Config) (uarch.Config, error) {
	if p == nil {
		return cfg, nil
	}
	var err error
	if p.Model != nil {
		if cfg.Model, err = consistency.ParseModel(*p.Model); err != nil {
			return cfg, err
		}
	}
	if p.StorePrefetch != nil {
		if cfg.StorePrefetch, err = uarch.ParsePrefetchMode(*p.StorePrefetch); err != nil {
			return cfg, err
		}
	}
	if p.HWS != nil {
		if cfg.HWS, err = uarch.ParseHWSMode(*p.HWS); err != nil {
			return cfg, err
		}
	}
	if p.StoreBuffer != nil {
		cfg.StoreBuffer = *p.StoreBuffer
	}
	if p.StoreQueue != nil {
		cfg.StoreQueue = *p.StoreQueue
	}
	if p.ROB != nil {
		cfg.ROB = *p.ROB
	}
	if p.CoalesceBytes != nil {
		cfg.CoalesceBytes = *p.CoalesceBytes
	}
	if p.SLE != nil {
		cfg.SLE = *p.SLE
	}
	if p.TM != nil {
		cfg.TM = *p.TM
	}
	if p.PrefetchPastSerializing != nil {
		cfg.PrefetchPastSerializing = *p.PrefetchPastSerializing
	}
	if p.SMACEntries != nil {
		cfg.SMACEntries = *p.SMACEntries
	}
	if p.Nodes != nil {
		cfg.Nodes = *p.Nodes
	}
	if p.MissPenalty != nil {
		cfg.MissPenalty = *p.MissPenalty
	}
	if p.PerfectStores != nil {
		cfg.PerfectStores = *p.PerfectStores
	}
	return cfg, nil
}

// RunRequest is one simulation request.
type RunRequest struct {
	// Workload names one of the paper's four: database, tpcw, specjbb,
	// specweb.
	Workload string `json:"workload"`
	Seed     int64  `json:"seed,omitempty"`  // default 1
	Insts    int64  `json:"insts,omitempty"` // default 2,000,000
	Warm     int64  `json:"warm,omitempty"`  // default 1,000,000
	// Config overlays knobs on the paper's default configuration.
	Config         *ConfigPatch `json:"config,omitempty"`
	DisableTraffic bool         `json:"disable_traffic,omitempty"`
	SharedCore     bool         `json:"shared_core,omitempty"`
	// Parallel is accepted only as 0 or 1 (both mean serial) so older
	// clients keep working; any other value is rejected, because
	// intra-run fan-out was removed. It does not enter the digest.
	Parallel int `json:"parallel,omitempty"`
	// NoCache bypasses the result table, so both its cache and
	// coalescing: the request always executes a fresh simulation
	// (benchmark cold path).
	NoCache bool `json:"nocache,omitempty"`
	// TimeoutMS bounds this request (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunResult is the epoch.Stats-derived payload of one run.
type RunResult struct {
	ConfigName              string  `json:"config_name"`
	Insts                   int64   `json:"insts"`
	Epochs                  int64   `json:"epochs"`
	EPI                     float64 `json:"epi"`
	MLP                     float64 `json:"mlp"`
	StoreMLP                float64 `json:"store_mlp"`
	OffChipCPI              float64 `json:"off_chip_cpi"`
	OverlappedStoreFraction float64 `json:"overlapped_store_fraction"`
	StoreMisses             int64   `json:"store_misses"`
	LoadMisses              int64   `json:"load_misses"`
	InstMisses              int64   `json:"inst_misses"`
	SMACAccelerated         int64   `json:"smac_accelerated,omitempty"`
}

// RunResponse wraps a result with its serving provenance.
type RunResponse struct {
	Digest string `json:"digest"`
	// Cached: served from the result cache without executing.
	Cached bool `json:"cached"`
	// Coalesced: joined an identical in-flight execution.
	Coalesced bool      `json:"coalesced"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Result    RunResult `json:"result"`
}

// SweepRequest executes many points; each flows through the same
// digest/cache/coalescing pipeline, bounded by the worker pool.
type SweepRequest struct {
	Points []RunRequest `json:"points"`
}

// SweepResponse aggregates the per-point responses in request order.
type SweepResponse struct {
	Points    []RunResponse `json:"points"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Cached    int           `json:"cached"`
	Coalesced int           `json:"coalesced"`
}

// httpError carries a status code out of the serving pipeline.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// resolve turns a RunRequest into a validated sim.Spec and its digest.
func (s *Server) resolve(req RunRequest) (sim.Spec, string, error) {
	if req.Workload == "" {
		return sim.Spec{}, "", badRequest("missing workload")
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	w, err := workload.ByName(strings.ToLower(req.Workload), seed)
	if err != nil {
		return sim.Spec{}, "", badRequest("%v", err)
	}
	cfg, err := req.Config.apply(uarch.Default())
	if err != nil {
		return sim.Spec{}, "", badRequest("config: %v", err)
	}
	insts, warm := req.Insts, req.Warm
	if insts == 0 {
		insts = 2_000_000
	}
	if warm == 0 {
		warm = 1_000_000
	}
	if insts < 0 || warm < 0 {
		return sim.Spec{}, "", badRequest("negative insts %d or warm %d", insts, warm)
	}
	// Compared without forming insts+warm, which can overflow.
	if insts > s.cfg.MaxInsts || warm > s.cfg.MaxInsts-insts {
		return sim.Spec{}, "", badRequest("insts %d + warm %d exceeds server limit %d", insts, warm, s.cfg.MaxInsts)
	}
	if req.Parallel != 0 && req.Parallel != 1 {
		return sim.Spec{}, "", badRequest("parallel %d: intra-run fan-out was removed; send 0 or 1 (serial)", req.Parallel)
	}
	spec := sim.Spec{
		Workload:       w,
		Config:         cfg,
		Insts:          insts,
		Warm:           warm,
		DisableTraffic: req.DisableTraffic,
		SharedCore:     req.SharedCore,
	}
	if err := spec.Validate(); err != nil {
		return sim.Spec{}, "", badRequest("%v", err)
	}
	return spec, digest.Sum(spec), nil
}

// execute runs one simulation on the worker pool: it waits for a slot
// (queue-depth gauge), runs the engine (in-flight gauge), and converts
// the stats.
func (s *Server) execute(ctx context.Context, spec sim.Spec) (*RunResult, error) {
	// The worker-slot wait is the serving layer's queueing delay: under
	// saturation a request's latency is dominated here, so it gets its
	// own span (arg = queue depth observed on entry).
	rt, parent := obs.SpanFrom(ctx)
	wait := rt.StartSpan(obs.StagePoolWait, parent)
	s.mQueueDepth.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.mQueueDepth.Add(-1)
		rt.EndSpan(wait, s.mQueueDepth.Value())
	case <-ctx.Done():
		s.mQueueDepth.Add(-1)
		rt.EndSpan(wait, -1)
		return nil, ctx.Err()
	}
	defer func() { <-s.slots }()

	s.mInflight.Add(1)
	s.mExecuted.Inc()
	defer s.mInflight.Add(-1)
	stats, err := s.runner(ctx, spec)
	if err != nil {
		s.mFailures.Inc()
		return nil, err
	}
	s.mInsts.Add(spec.Insts + spec.Warm)
	s.mEpochs.Add(stats.Epochs)
	return &RunResult{
		ConfigName:              spec.Config.Name(),
		Insts:                   stats.Insts,
		Epochs:                  stats.Epochs,
		EPI:                     stats.EPI(),
		MLP:                     stats.MLP(),
		StoreMLP:                stats.StoreMLP(),
		OffChipCPI:              stats.OffChipCPI(spec.Config.MissPenalty),
		OverlappedStoreFraction: stats.OverlappedStoreFraction(),
		StoreMisses:             stats.StoreMisses,
		LoadMisses:              stats.LoadMisses,
		InstMisses:              stats.InstMisses,
		SMACAccelerated:         stats.SMACAccelerated,
	}, nil
}

// servePoint is the full pipeline for one point:
// digest -> result table -> pool -> engine.
func (s *Server) servePoint(ctx context.Context, req RunRequest) (RunResponse, error) {
	start := time.Now()
	rt, parent := obs.SpanFrom(ctx)
	sp := rt.StartSpan(obs.StageDigest, parent)
	spec, key, err := s.resolve(req)
	rt.EndSpan(sp, 0)
	if err != nil {
		return RunResponse{}, err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resp := RunResponse{Digest: key}

	rs := reqStatsFrom(ctx)

	if req.NoCache {
		// Benchmark cold path: always a fresh execution, never shared.
		rs.bypass.Add(1)
		res, err := s.execute(ctx, spec)
		if err != nil {
			return RunResponse{}, err
		}
		resp.Result = *res
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return resp, nil
	}

	sp = rt.StartSpan(obs.StageCacheProbe, parent)
	e, state := s.results.claim(key)
	if state == entryReady {
		rt.EndSpan(sp, 1)
		s.mCacheHits.Inc()
		rs.hits.Add(1)
		resp.Cached = true
		resp.Result = *e.res
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return resp, nil
	}
	rt.EndSpan(sp, 0)
	s.mCacheMisses.Inc()

	shared := state == entryRunning
	sp = obs.NoSpan
	if shared {
		// A follower's whole pipeline is this wait: the execution's
		// spans belong to the leader's trace, so the follower records
		// only how long it was parked on someone else's simulation.
		sp = rt.StartSpan(obs.StageCoalesceWait, parent)
	} else {
		// The leader executes on a context derived from the server's
		// lifetime, not its own request; re-attaching the leader's span
		// context puts the pool_wait/simulate spans on its trace.
		go func(execCtx context.Context) {
			res, err := s.execute(obs.WithSpan(execCtx, rt, parent), spec)
			s.results.finish(e, res, err)
		}(e.ctx)
	}
	res, err := s.results.wait(ctx, e)
	rt.EndSpan(sp, 0)
	if err != nil {
		return RunResponse{}, err
	}
	if shared {
		s.mCoalesced.Inc()
		rs.coalesced.Add(1)
	} else {
		rs.misses.Add(1)
	}
	resp.Coalesced = shared
	resp.Result = *res
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// ---- HTTP layer ----

// Handler returns the service mux wrapped with request logging and
// metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.Metrics.Handler())
	mux.Handle("GET /debug/obs/trace", s.slow.TraceHandler())
	mux.Handle("GET /debug/obs/runs", s.board.Handler())
	mux.Handle("GET /debug/obs/vars", s.Metrics.JSONHandler())
	mux.Handle("GET /debug/obs/slow", s.slow.Handler())
	mux.Handle("GET /debug/obs/req", s.slow.ReqHandler())
	return s.instrument(mux)
}

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func endpointOf(path string) string {
	switch path {
	case "/v1/run":
		return "run"
	case "/v1/sweep":
		return "sweep"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	}
	if strings.HasPrefix(path, "/debug/") {
		return "debug"
	}
	return "run" // unknown paths 404 through the mux; bucket arbitrarily
}

func classOf(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	}
	return "2xx"
}

// reqStats accumulates per-request cache accounting across the points
// the request serves (one for /v1/run, many for /v1/sweep); sweeps
// serve points concurrently, hence the atomics. The instrument
// middleware plants one in the context and renders it on the
// completion log line.
type reqStats struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	bypass    atomic.Int64
}

// state renders the cache interaction: the bare class for the common
// single-point request, "hit=3,miss=1"-style tallies for sweeps, and
// "none" when no point reached the cache (errors, and probes — which
// skip the sink entirely, hence the nil receiver).
func (c *reqStats) state() string {
	if c == nil {
		return "none"
	}
	counts := [...]struct {
		name string
		n    int64
	}{
		{"hit", c.hits.Load()},
		{"miss", c.misses.Load()},
		{"coalesced", c.coalesced.Load()},
		{"bypass", c.bypass.Load()},
	}
	total := int64(0)
	parts := make([]string, 0, len(counts))
	for _, ct := range counts {
		if ct.n == 0 {
			continue
		}
		total += ct.n
		parts = append(parts, fmt.Sprintf("%s=%d", ct.name, ct.n))
	}
	switch {
	case total == 0:
		return "none"
	case total == 1:
		return parts[0][:strings.IndexByte(parts[0], '=')]
	}
	return strings.Join(parts, ",")
}

// outcomeOf classifies a response status for the completion log line.
func outcomeOf(status int) string {
	switch {
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status >= 500:
		return "server_error"
	case status >= 400:
		return "client_error"
	}
	return "ok"
}

// probeEndpoint reports whether ep is scrape/probe noise (health
// checks, metric scrapes, debug views): those requests skip the
// request-stats sink and the span tree entirely — no context values, no
// trace arena, zero registry churn — and log at debug level.
func probeEndpoint(ep string) bool {
	return ep == "healthz" || ep == "metrics" || ep == "debug"
}

// instrument wraps the mux with request IDs, structured logs, latency
// histograms and request counters. Each request logs exactly one
// completion line carrying its ID, duration, cache state and outcome.
// Non-probe requests additionally get a request-scoped span tree
// (X-Trace-Id echoes the trace ID, trace_id lands on the log line); on
// completion the tree feeds the per-stage histograms and the slowest-N
// ring behind /debug/obs/slow.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := fmt.Sprintf("%06x-%04d", start.UnixNano()&0xffffff, s.reqSeq.Add(1)%10000)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set("X-Request-Id", id)
		ep := endpointOf(r.URL.Path)
		var rs *reqStats
		var rt *obs.ReqTrace
		if !probeEndpoint(ep) {
			rs = &reqStats{}
			ctx := withReqStats(withRequestID(r.Context(), id), rs)
			if s.slow != nil {
				rt = s.board.NewReqTrace(id, reqSpanCap, s.cfg.TraceEvents)
				ctx = obs.WithSpan(ctx, rt, rt.Root())
				sw.Header().Set("X-Trace-Id", id)
			}
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		if byClass, ok := s.mReqs[ep]; ok {
			byClass[classOf(sw.status)].Inc()
		}
		if h, ok := s.mLatency[ep]; ok {
			h.Observe(dur.Seconds())
		}
		rt.Finish(r.Method+" "+r.URL.Path, sw.status)
		s.observeStages(rt)
		s.slow.Add(rt)
		level := slog.LevelInfo
		if probeEndpoint(ep) {
			level = slog.LevelDebug // probe noise
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("req_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("dur", dur),
			slog.String("cache", rs.state()),
			slog.String("outcome", outcomeOf(sw.status)),
			slog.String("trace_id", rt.ID()),
		)
	})
}

// observeStages feeds one finished request trace into the per-stage
// latency histograms: every closed non-root span contributes its
// duration to mlpsimd_stage_seconds{stage=...}, so the request
// histogram decomposes into queue wait vs cache state vs simulation.
func (s *Server) observeStages(rt *obs.ReqTrace) {
	if rt == nil {
		return
	}
	for _, sp := range rt.Snapshot() {
		if sp.Stage == obs.StageRequest || sp.End == 0 {
			continue // the root IS mlpsimd_request_seconds; open spans have no duration
		}
		if h := s.mStage[sp.Stage]; h != nil {
			h.Observe(float64(sp.End-sp.Start) / 1e9)
		}
	}
}

type ctxKey int

const (
	requestIDKey ctxKey = iota
	reqStatsKey
)

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request ID the logging middleware attached.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

func withReqStats(ctx context.Context, rs *reqStats) context.Context {
	return context.WithValue(ctx, reqStatsKey, rs)
}

// reqStatsFrom returns the request's cache accounting; callers outside
// the middleware (direct servePoint use in tests) get a discard sink.
func reqStatsFrom(ctx context.Context) *reqStats {
	if rs, ok := ctx.Value(reqStatsKey).(*reqStats); ok {
		return rs
	}
	return &reqStats{}
}

// writeJSON encodes v with a status code.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// fail maps pipeline errors to HTTP statuses.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	var he *httpError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away (or the server is shutting down): the exact
		// code rarely reaches anyone, but 499-style semantics fit 503.
		status = http.StatusServiceUnavailable
	}
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "request failed",
		slog.String("req_id", RequestID(r.Context())),
		slog.Int("status", status),
		slog.String("err", err.Error()),
	)
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxSweepPoints bounds one sweep request; larger grids should be
// split by the client.
const maxSweepPoints = 4096

// maxPointBytes budgets the encoded size of one request point: a point
// setting every ConfigPatch knob is about 400 bytes of compact JSON.
const maxPointBytes = 1 << 10

// maxBodyBytes bounds a request body, so a hostile or runaway client
// is cut off before the decoder buffers more than a full sweep's worth.
const maxBodyBytes = maxSweepPoints * maxPointBytes

// decodeJSON decodes the one JSON value r holds into v, strictly: a
// field v's type does not define is an error, so a misspelled knob
// fails the request instead of being ignored, and so is anything but
// whitespace after the value.
func decodeJSON(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
		return err
	}
	return nil
}

// decodeBody decodes r's JSON body into v, reading at most
// maxBodyBytes: a longer body fails with 413; a malformed one, one with
// an unknown field or one with data after its value fails with 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	case err != nil:
		return badRequest("decoding request: %v", err)
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rt, parent := obs.SpanFrom(r.Context())
	var req RunRequest
	sp := rt.StartSpan(obs.StageParse, parent)
	err := decodeBody(w, r, &req)
	rt.EndSpan(sp, 0)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	resp, err := s.servePoint(r.Context(), req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	sp = rt.StartSpan(obs.StageRender, parent)
	writeJSON(w, http.StatusOK, resp)
	rt.EndSpan(sp, 1)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rt, parent := obs.SpanFrom(r.Context())
	var req SweepRequest
	sp := rt.StartSpan(obs.StageParse, parent)
	err := decodeBody(w, r, &req)
	rt.EndSpan(sp, 0)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	if len(req.Points) == 0 {
		s.fail(w, r, badRequest("empty sweep"))
		return
	}
	if len(req.Points) > maxSweepPoints {
		s.fail(w, r, badRequest("sweep of %d points exceeds limit %d", len(req.Points), maxSweepPoints))
		return
	}
	start := time.Now()
	resp := SweepResponse{Points: make([]RunResponse, len(req.Points))}
	errs := make([]error, len(req.Points))
	var wg sync.WaitGroup
	for i := range req.Points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Points[i], errs[i] = s.servePoint(r.Context(), req.Points[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.fail(w, r, err)
			return
		}
	}
	for _, p := range resp.Points {
		if p.Cached {
			resp.Cached++
		}
		if p.Coalesced {
			resp.Coalesced++
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	sp = rt.StartSpan(obs.StageRender, parent)
	writeJSON(w, http.StatusOK, resp)
	rt.EndSpan(sp, int64(len(resp.Points)))
}

type healthBody struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	Workers      int     `json:"workers"`
	Inflight     int64   `json:"inflight"`
	QueueDepth   int64   `json:"queue_depth"`
	CacheEntries int     `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{
		Status:       "ok",
		UptimeS:      time.Since(s.start).Seconds(),
		Workers:      s.cfg.Workers,
		Inflight:     s.mInflight.Value(),
		QueueDepth:   s.mQueueDepth.Value(),
		CacheEntries: int(s.mCacheEntries.Value()),
	})
}
