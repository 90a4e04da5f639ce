GO ?= go

.PHONY: build test check vet storemlpvet lint bench bench-serve benchdiff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full CI gate: build + go vet + storemlpvet + race-enabled tests.
check:
	./scripts/check.sh

vet:
	$(GO) vet ./...

storemlpvet:
	$(GO) run ./cmd/storemlpvet ./...

# Standalone lint: stock go vet plus the storemlpvet rules.
# -list first so the log names every rule that ran.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/storemlpvet -list
	$(GO) run ./cmd/storemlpvet ./...

bench:
	$(GO) test -bench=. -benchmem

# Serving-layer benchmark: local mlpsimd + the repeated Figure-2 grid
# via mlpload; writes BENCH_serve.json.
bench-serve:
	./scripts/bench.sh

# Perf-regression gate: re-run the full benchmark suite into throwaway
# files and diff them against the committed baselines with per-metric,
# direction-aware tolerances (DESIGN.md §17). Exits nonzero on any
# regression beyond tolerance — run before refreshing the baselines.
benchdiff:
	BENCH_ENGINE_OUT=/tmp/BENCH_engine.new.json \
	BENCH_SERVE_OUT=/tmp/BENCH_serve.new.json \
		./scripts/bench.sh
	$(GO) run ./cmd/benchdiff -mode gate \
		BENCH_engine.json /tmp/BENCH_engine.new.json \
		BENCH_serve.json /tmp/BENCH_serve.new.json
