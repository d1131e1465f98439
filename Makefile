GO ?= go
FUZZTIME ?= 5s
BENCHTIME ?= 300ms

.PHONY: all build lint lint-sarif fix-smoke vet test serve-test race bench bench-diff fuzz-smoke

all: build lint vet test

build:
	$(GO) build ./...

lint:
	$(GO) run ./cmd/arlint ./...

# SARIF log for code-scanning upload; the file is written even when
# there are findings, so CI can upload before failing.
lint-sarif:
	$(GO) run ./cmd/arlint -format=sarif ./... > arlint.sarif || true
	@test -s arlint.sarif

# -fix must be idempotent: applying fixes to an already-fixed tree
# changes nothing. On a clean tree both runs are no-ops, so any diff
# means a fix fought the checkers.
fix-smoke:
	$(GO) run ./cmd/arlint -fix ./...
	$(GO) run ./cmd/arlint -fix ./...
	git diff --exit-code

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Focused end-to-end pass over the serving layer: httptest-driven
# cache/coalescing/admission/deadline behavior plus the disk warm-restart
# round trip.
serve-test:
	$(GO) test -race -count=1 ./internal/serve/

# Race-detector pass over the concurrent packages: the RankMany
# fail-fast worker pool, the parallel power iteration, the distributed
# partition runtime, the experiment drivers that fan work out across
# goroutines, the serving daemon (single-flight coalescing and the
# admission gate are exactly the interleavings -race exists to catch),
# and the worker team under the sweep pool and the graph loader's
# parallel in-CSR build.
race:
	$(GO) test -race ./internal/par/ ./internal/kernel/ ./internal/core/ ./internal/pagerank/ ./internal/distributed/ ./internal/experiments/ ./internal/serve/ ./internal/graph/

# Focused engine benchmarks (chain construction, ApproxRank, the
# sequential and parallel power iterations, RankMany fan-out, the
# kernel's pooled-vs-respawn sweep pair, the graph loading pipeline:
# v2 load, zero-copy mmap open, text-loader allocs, and the
# save→mmap→rank end-to-end path, and serve's request hot path: rank
# body decoding, id canonicalization and a whole result hit written
# from its stored tail) parsed to a machine-readable
# artifact. BENCHTIME trades precision for speed; the graph corpus runs
# at ~1M edges here — set GRAPH_BENCH_CRAWL=1 for the 10M/50M scales.
# Every benchmark runs three times and benchjson records the
# per-benchmark median, so one slow run cannot trip bench-diff's ns/op
# gate by itself.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -count=3 -run='^$$' \
		./internal/core/ ./internal/pagerank/ ./internal/kernel/ ./internal/graph/ ./internal/serve/ | $(GO) run ./cmd/benchjson > BENCH_core.json
	@echo "wrote BENCH_core.json"

# Gate the current tree's benchmarks against a baseline artifact:
#   make bench-diff BASELINE=path/to/old.json [THRESHOLD=30]
# Exits non-zero when ns/op or allocs/op regressed past the threshold.
# The default threshold is generous because `make bench` runs at a short
# BENCHTIME — allocs/op is exact, but ns/op carries sampling noise.
THRESHOLD ?= 30
bench-diff: bench
	$(GO) run ./cmd/benchjson -diff -threshold $(THRESHOLD) $(BASELINE) BENCH_core.json

# Short fuzzing pass over every fuzz target; go test accepts one -fuzz
# pattern per package invocation, so each target gets its own run.
fuzz-smoke:
	$(GO) test ./internal/graph/ -run FuzzReadBinaryV2 -fuzz FuzzReadBinaryV2 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/ -run FuzzReadEdgeList -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/ -run FuzzSubgraph -fuzz FuzzSubgraph -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics/ -run FuzzRankingMetrics -fuzz FuzzRankingMetrics -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run FuzzRankRequest -fuzz FuzzRankRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run FuzzCanonicalIDs -fuzz FuzzCanonicalIDs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run FuzzRankHit -fuzz FuzzRankHit -fuzztime $(FUZZTIME)
