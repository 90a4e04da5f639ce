// Command mlpsimd is the long-running simulation service: an HTTP JSON
// daemon in front of the epoch MLP engine. Each request is one
// simulation point; the daemon executes points on a bounded worker
// pool, coalesces identical concurrent requests onto one engine
// execution, caches results by canonical config digest, and exposes
// Prometheus-text metrics. A grid of points is as many concurrent
// /v1/run requests (cmd/mlpload sends one).
//
// Endpoints:
//
//	POST /v1/run          one simulation point (body at most 16 KiB)
//	GET  /healthz         liveness + pool/cache summary
//	GET  /metrics         Prometheus text exposition
//	GET  /debug/obs/trace retained slow-request span trees as Chrome trace_event JSON
//	GET  /debug/obs/runs  live engine progress snapshots
//	GET  /debug/obs/vars  the metrics registry as JSON
//	GET  /debug/obs/slow  slowest requests with per-stage timings
//	GET  /debug/obs/req   one request's span tree as Chrome trace JSON (?id=<trace_id>)
//
// Every /v1/run request gets a span tree (X-Trace-Id response
// header, trace_id on the completion log line); the slowest are
// retained in a bounded ring sized by -slow for post-hoc latency
// attribution. README "Explaining a slow request" walks the flow.
//
// Examples:
//
//	mlpsimd -addr :7743
//	mlpsimd -addr 127.0.0.1:0 -workers 8 -cache 1024 -log json
//	mlpsimd -addr :7743 -trace-out run.trace.json
//	curl -s localhost:7743/v1/run -d '{"workload":"tpcw","insts":500000}'
//	curl -s localhost:7743/debug/obs/slow | head
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener closes, in-
// flight requests drain (bounded by -drain), then remaining simulations
// are aborted via context cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"storemlp/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mlpsimd: %v\n", err)
		os.Exit(1)
	}
}

// onReady is invoked with the bound address once the listener is up.
// Tests (and the check.sh smoke test via the printed line) use it to
// find a :0 port.
var onReady = func(addr string) {}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mlpsimd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":7743", "listen address (host:port, :0 picks a free port)")
		workers = fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		cache   = fs.Int("cache", 4096, "result-cache entries (negative disables caching)")
		maxI    = fs.Int64("max-insts", 100_000_000, "per-request insts+warm ceiling")
		reqTO   = fs.Duration("timeout", 120*time.Second, "default per-request timeout")
		drain   = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		logFmt  = fs.String("log", "text", "log format: text or json")
		verbose = fs.Bool("v", false, "debug logging (includes healthz/metrics probes)")
		pprofOn = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling; leave off in production)")
		trcCap  = fs.Int("trace-events", 0, "engine-detail spans (batches, fold) one request trace may hold (0 = default 384, the maximum; negative records none)")
		trcOut  = fs.String("trace-out", "", "write the retained request traces as Chrome trace_event JSON to this file on graceful shutdown")
		slowN   = fs.Int("slow", 0, "slowest-request ring size behind /debug/obs/slow (0 = default 32, negative disables request span tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	var handler slog.Handler
	switch *logFmt {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", *logFmt)
	}
	log := slog.New(handler)

	svc := server.New(server.Config{
		Workers:        *workers,
		CacheEntries:   *cache,
		MaxInsts:       *maxI,
		DefaultTimeout: *reqTO,
		Logger:         log,
		TraceEvents:    *trcCap,
		SlowRequests:   *slowN,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	h := svc.Handler()
	if *pprofOn {
		// The service handler owns "/"; graft the pprof endpoints onto a
		// wrapping mux so nothing is exposed unless the flag is set.
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		h = mux
	}
	httpSrv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}

	bound := ln.Addr().String()
	fmt.Fprintf(stdout, "mlpsimd listening on %s\n", bound)
	log.Info("mlpsimd up", "addr", bound)
	onReady(bound)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight HTTP requests
	// (each still honors its own deadline), then abort whatever remains.
	log.Info("shutting down", "drain", drain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	svc.Close()
	if shutErr != nil && !errors.Is(shutErr, context.DeadlineExceeded) {
		return shutErr
	}
	if shutErr != nil {
		log.Warn("drain budget exceeded; aborted remaining simulations")
	}
	if *trcOut != "" {
		if err := dumpTrace(svc, *trcOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		log.Info("trace written", "path", *trcOut)
	}
	fmt.Fprintln(stdout, "mlpsimd stopped")
	return nil
}

// dumpTrace writes the retained slow-request span trees as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto), one
// process per request. Disabled span tracing writes a valid empty
// trace.
func dumpTrace(svc *server.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := svc.WriteTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
