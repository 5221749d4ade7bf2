# Developer entry points. `make verify` is the full pre-commit gate:
# tier-1 (build + test) plus vet and the race detector. `go test ./...`
# includes TestTreeLintsClean, which runs the syncerr analyzer
# (internal/analysis) over the whole module.

GO ?= go

.PHONY: all build test race vet verify fmt fmt-check bench bench-space bench-query bench-store bench-publish bench-e2e-check fleet-smoke clean

# BENCH_CPUS is the -cpu list of the scaling benchmarks: 1,2,4,8 cut
# off at the host's core count. A row above it measures goroutines
# contending for cores, not scaling.
NPROC := $(shell getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
BENCH_CPUS := $(shell l=1; for c in 2 4 8; do [ $$c -le $(NPROC) ] && l=$$l,$$c; done; echo $$l)

all: verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench-e2e-check vets and tests the end-to-end benchmark. It is a
# module of its own (bench/e2e/go.mod, `replace alex => ../..`), so the
# root `go build ./...` never compiles it: without this target a
# change to an internal API it uses would first fail in the benchmark
# pipeline.
bench-e2e-check:
	cd bench/e2e && $(GO) vet ./... && $(GO) test ./...

verify: build vet test race bench-e2e-check
	@echo "verify: OK"

fmt:
	gofmt -l -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench re-records the four BENCH files. The paper's figures are
# `go run ./cmd/alexbench -exp all` (bounded by ./internal/experiments'
# tests); the serving numbers are bench/e2e/run.sh.
bench: bench-space bench-query bench-store bench-publish

# bench-space runs the feature-space construction scaling benchmark
# (-cpu rows are the parallel speedup curve) and records the results as
# BENCH_space.json via cmd/benchjson, which stamps every BENCH file
# with the host's core count, GOMAXPROCS, CPU model, Go version and
# the commit.
bench-space:
	$(GO) test -run '^$$' -bench '^BenchmarkSpaceBuild$$' -benchmem \
		-cpu=$(BENCH_CPUS) ./internal/feature | \
		$(GO) run ./cmd/benchjson -out BENCH_space.json

# bench-query runs the federated query read-path benchmarks: cold vs
# pre-warmed plan cache and bench/e2e's three join shapes through the
# shape-keyed cache, the skewed-hub profile's misordered query, and the
# finalizer's ORDER BY alone. A query is one goroutine, so there is no -cpu axis: a second P
# only moves the garbage collector. Results land in BENCH_query.json.
bench-query:
	$(GO) test -run '^$$' -bench '^(BenchmarkFederatedQuery|BenchmarkAdaptiveQuery|BenchmarkFinalizeOrderBy)$$' -benchmem \
		./internal/federation ./internal/sparql | \
		$(GO) run ./cmd/benchjson -out BENCH_query.json

# bench-store runs the segment-store benchmark at the largest synth
# profile: the one-time store build, an mmap'd full scan, mmap cold
# start vs N-Triples re-parse (acceptance: faster), and the probes a
# bind join makes — S+P-bound point lookups and P+O-bound counts over
# every pair of ds1, on rdf.Graph's heap image (mem) and the mmap'd
# segment (disk): one index, two residencies.
# Results land in BENCH_store.json.
bench-store:
	$(GO) test -run '^$$' -bench '^BenchmarkSegmentStore$$' -benchmem \
		./internal/store | \
		$(GO) run ./cmd/benchjson -out BENCH_store.json

# bench-publish runs the episode-boundary benchmark through the
# writer's path: BeginEpisode, 100 rejections, FinishEpisode and the
# publication of the next snapshot from the previous one, at 10k and
# 100k candidates. Results land in BENCH_publish.json.
bench-publish:
	$(GO) test -run '^$$' -bench '^BenchmarkEpisodeBoundary$$' -benchmem \
		./internal/server | \
		$(GO) run ./cmd/benchjson -out BENCH_publish.json

# fleet-smoke boots 3 alexd shards plus an alexrouter out-of-process,
# sends curl lookups and one approval per owner through the router,
# acks a rejection that spans every owner, SIGKILLs one shard, asserts
# degraded-but-correct serving, restarts it and asserts recovery with
# the acked rejection served nowhere.
fleet-smoke:
	./scripts/fleet_smoke.sh

clean:
	$(GO) clean ./...
