# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test test-race vet lint fmt-check staticcheck check bench-check bench-smoke examples-smoke fuzz-smoke chaos metrics-smoke workload-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Two passes: the default vet suite, then an explicit run of analyzers we
# depend on (copylocks: the store mutexes must never be copied; lostcancel:
# query contexts must be cancelled) so they stay on even if the default set
# changes. nilness lives in x/tools, which the module deliberately does not
# depend on — staticcheck covers that ground in CI.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -lostcancel ./...

# The repo's own analyzer suite (internal/lint, cmd/estocada-lint):
# batch-protocol, cow-escape, ctx-propagation, hot-path-alloc,
# ignore-hygiene, sentinel-errors. Zero findings required; see
# ARCHITECTURE.md "Static analysis".
lint:
	$(GO) run ./cmd/estocada-lint

# Fails when any file needs gofmt (CI runs the same gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Lint with staticcheck when it is installed, pinned so local runs and CI
# agree on the rule set (CI installs exactly this version; local developers
# without the binary are not blocked, but a mismatched version fails).
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@if command -v staticcheck >/dev/null; then \
		v="$$(staticcheck -version | awk '{print $$2}')"; \
		if [ "$$v" != "$(STATICCHECK_VERSION)" ]; then \
			echo "staticcheck $$v does not match pinned $(STATICCHECK_VERSION);"; \
			echo "run: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
			exit 1; fi; \
		staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it pinned at $(STATICCHECK_VERSION))"; fi

check: fmt-check vet lint build test bench-check

# bench/ is its own module (BENCHMARK.json's contract), so `go build ./...`
# and `go test ./...` at the root do not see it. It calls store and engine
# methods by name; this makes a rename that breaks it a build failure here
# instead of a surprise in the benchmark run. The build writes to
# /dev/null: bench/ is one main package, so a plain build would leave its
# binary in the tree.
bench-check:
	cd bench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test -short ./...

# Concurrency soak: the full suite under the race detector (CI runs this
# as its own job).
test-race:
	$(GO) test -race ./...

# Quick allocation check of the rewriting hot path.
bench-smoke:
	$(GO) test -run xxx -bench 'E3|HomSearch|ChaseSaturation' -benchtime=1x -benchmem

# Runs every example program, the demo and one SQL and one FLWOR query
# through estocada-sql -explain: the callers of System.Query, none of
# which has a test of its own. Fails on any non-zero exit.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d >/dev/null; done
	@echo "== cmd/estocada-demo"; $(GO) run ./cmd/estocada-demo -users 100 >/dev/null
	@echo "== cmd/estocada-sql (sql)"; $(GO) run ./cmd/estocada-sql -explain \
		-q "SELECT u.name FROM Users u WHERE u.city = 'paris'" >/dev/null
	@echo "== cmd/estocada-sql (flwor)"; $(GO) run ./cmd/estocada-sql -explain -lang flwor \
		-q 'for c in Carts where c.uid = "u00003" return c.pid, c.qty' >/dev/null

# Short coverage-guided runs of the three parser fuzz targets and of the
# shape cache's differential target (seed inputs and the committed corpora
# under internal/lang/testdata/fuzz always run as part of `make test`; this
# adds fresh exploration). FUZZTIME scales the run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz FuzzParseSQL -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzParseFLWOR -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzParseCQ -fuzztime $(FUZZTIME) ./internal/lang/
	$(GO) test -fuzz FuzzShapeMatchesParse -fuzztime $(FUZZTIME) ./internal/service/

# Fault-injection suite under the race detector: chaos workloads, the
# store contract (internal/engines) and the injector unit tests, the
# differential fuzz oracle and the HTTP fault admin paths.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/engines/ ./internal/engines/engine/ ./internal/langfuzz/ ./cmd/estocada-serve/

# End-to-end observability smoke: build and start estocada-serve, run a
# query, then assert /metrics is a non-empty Prometheus exposition with
# observed query histograms. CI runs this same script.
metrics-smoke:
	./scripts/metrics_smoke.sh

# End-to-end workload-observatory smoke: per-fingerprint accounting at
# /debug/workload, a retained request trace resolvable by its
# traceparent-echoed ID, and the workload + process Prometheus families.
# CI runs this same script.
workload-smoke:
	./scripts/workload_smoke.sh
