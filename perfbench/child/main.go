// Command child is the service the serve workload measures: the
// internal/server core configured as cmd/mlpsimd configures it by
// default. Its one difference from mlpsimd is that its listener also
// speaks HTTP/2 over cleartext (h2c), so the load generator can
// multiplex every in-flight request over a few connections. It prints
// "mlpsimd listening on <addr>" once ready and shuts down gracefully on
// SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"storemlp/internal/server"
)

// mlpsimd's flag defaults.
const (
	cacheEntries   = 4096
	maxInsts       = 100_000_000
	defaultTimeout = 120 * time.Second
	drainBudget    = 30 * time.Second
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:0", "listen address (host:port, :0 picks a free port)")
		traced = fs.Bool("trace", false, "keep request spans and the run tracer on, as mlpsimd does by default (off = mlpsimd -slow -1 -trace-events -1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		CacheEntries:    cacheEntries,
		MaxInsts:        maxInsts,
		DefaultTimeout:  defaultTimeout,
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})),
		DefaultParallel: 1,
	}
	if !*traced {
		cfg.TraceEvents, cfg.SlowRequests = -1, -1
	}
	svc := server.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		Protocols:         &protos,
	}
	fmt.Printf("mlpsimd listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	svc.Close()
	if shutErr != nil && !errors.Is(shutErr, context.DeadlineExceeded) {
		return shutErr
	}
	return nil
}
