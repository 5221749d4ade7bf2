# Developer entry points. `make verify` is the full pre-commit gate:
# tier-1 (build + test) plus vet, alexlint, and the race detector.

GO ?= go

.PHONY: all build test race vet lint verify fmt fmt-check bench bench-space bench-query bench-fleet bench-store bench-e2e-check fleet-smoke fleet-chaos clean

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

# lint builds and runs alexlint, the ALEX invariant analyzer suite
# (internal/analysis). Also usable as `go vet -vettool=bin/alexlint`.
# The wall-clock budget guards the two-phase loader: the repo-wide
# typecheck + fact fixpoint must stay interactive, or the gate stops
# being run before commits.
lint:
	@start=$$(date +%s) && \
	$(GO) build -o bin/alexlint ./cmd/alexlint && \
	./bin/alexlint ./... && \
	elapsed=$$(( $$(date +%s) - start )) && \
	echo "lint: clean in $${elapsed}s (budget 60s)" && \
	if [ $$elapsed -ge 60 ]; then \
		echo "lint: FAIL: $${elapsed}s exceeds the 60s budget" >&2; exit 1; fi

# bench-e2e-check vets and tests the end-to-end benchmark. It is a
# module of its own (bench/e2e/go.mod, `replace alex => ../..`), so the
# root `go build ./...` never compiles it: without this target a
# change to an internal API it uses would first fail in the benchmark
# pipeline.
bench-e2e-check:
	cd bench/e2e && $(GO) vet ./... && $(GO) test ./...

verify: build vet lint test race bench-e2e-check
	@echo "verify: OK"

fmt:
	gofmt -l -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench: bench-space bench-query bench-store bench-fleet
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

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
# pre-warmed plan cache and bench/e2e's three join shapes, a fresh vs a
# learned plan on the skewed-hub profile, and the finalizer's ORDER BY
# alone. A query is one goroutine, so there is no -cpu axis: a second P
# only moves the garbage collector. Results land in BENCH_query.json.
bench-query:
	$(GO) test -run '^$$' -bench '^(BenchmarkFederatedQuery|BenchmarkAdaptiveQuery|BenchmarkFinalizeOrderBy)$$' -benchmem \
		./internal/federation ./internal/sparql | \
		$(GO) run ./cmd/benchjson -out BENCH_query.json

# bench-store runs the segment-store lifecycle benchmark at the
# largest synth profile: segment build, mmap'd full scan, the O(delta)
# disk checkpoint vs the mem backend's full serialization (acceptance:
# >=10x faster), and mmap cold start vs N-Triples re-parse (acceptance:
# faster). Results land in BENCH_store.json.
bench-store:
	$(GO) test -run '^$$' -bench '^BenchmarkSegmentStore$$' -benchmem \
		./internal/store | \
		$(GO) run ./cmd/benchjson -out BENCH_store.json

# bench-fleet runs the sharded-fleet benchmark: router query throughput
# over 1, 2 and 4 alexd shards with simulated I/O-bound sources. Acceptance is queries/s growing with the shard
# count; results land in BENCH_fleet.json.
bench-fleet:
	$(GO) test -run '^$$' -bench '^BenchmarkFleetQuery$$' -benchmem \
		-benchtime=200x ./internal/fleet | \
		$(GO) run ./cmd/benchjson -out BENCH_fleet.json

# fleet-smoke boots 3 alexd shards plus an alexrouter out-of-process,
# queries through the router, kills one shard, asserts
# degraded-but-correct serving, restarts it and asserts recovery.
fleet-smoke:
	./scripts/fleet_smoke.sh

# fleet-chaos is the seeded chaos drill: 3 shards behind faultnetd
# proxies (latency, drops, 5xx, partition) plus a SIGKILL'd shard;
# asserts zero acked-feedback loss and answer identity vs single-node.
fleet-chaos:
	./scripts/fleet_chaos.sh

clean:
	$(GO) clean ./...
	rm -rf bin
