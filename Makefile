# Standard verification gate: `make check` is what CI (and every PR) runs.

GO ?= go

.PHONY: check fmt vet build test race repeat benchmark-test bench bench-smoke bench-gate profile contention verify-journal scenarios

check: fmt vet build race repeat benchmark-test bench-smoke bench-gate verify-journal

# -s also flags code a `gofmt -s` simplification would rewrite (vet's
# missing sibling: composite-literal elision, redundant slice bounds, ...).
fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-1 must pass repeatedly on a small box, not once: five runs of the
# serving packages at two procs, where timing-dependent tests flake first.
repeat:
	GOMAXPROCS=2 $(GO) test -count=5 . ./internal/infer/... ./internal/predcache ./internal/rest ./internal/sim

# The end-to-end benchmark is its own module (benchmark/go.mod), so
# `go test ./...` never reaches its tests: the manifest and the binary's
# metric tables agree, the compile surface is narrow, a run leaves nothing
# outside .bench_build/.
benchmark-test:
	$(GO) -C benchmark test ./...

# Queue and serving micro-benchmarks (ring buffer vs the seed's copy-shift).
bench:
	$(GO) test ./internal/infer/ -run none -bench BenchmarkQueuePopN -benchmem

# One pass of the replica-scaling benchmark (virtual time, deterministic),
# a bounded run of the sharded-submit benchmark (wall clock, 1/4/8 queue
# shards), one pass of the parallel-dispatch benchmark (wall clock,
# 8 shards × 1/2/4 dispatch groups, full serve path), and one pass of the
# prediction-cache benchmark (Zipfian stream, cache off vs on): cheap gates
# that the dispatch hot path still scales with replicas, the submit path
# with shards, the drain path with dispatch groups, and the read-through
# cache still short-circuits a skewed stream. The fixed iteration counts
# bound the standing backlog the submit benchmark accumulates. Last, one
# sequential 150-trial study on the Bayesian advisor, with its allocations,
# one 16-sample batch through the nn kernel (Forward×16 vs ForwardBatch),
# one short and one long seeded stream (lazy sim.RNG vs math/rand), and one
# REST cache hit (handler alone, then over a loopback keep-alive connection).
bench-smoke:
	$(GO) test ./internal/infer/ -run none -bench BenchmarkReplicaScaling -benchtime 1x
	$(GO) test . -run none -bench BenchmarkShardedSubmit -benchtime 20000x
	$(GO) test . -run none -bench BenchmarkParallelDispatch -benchtime 1x
	$(GO) test . -run none -bench BenchmarkPredictionCache -benchtime 1x
	$(GO) test ./internal/advisor/ -run none -bench BenchmarkBayesStudy -benchtime 1x
	$(GO) test ./internal/nn/ -run none -bench BenchmarkForwardBatch -benchtime 1x
	$(GO) test ./internal/sim/ -run none -bench BenchmarkNewRNG -benchtime 1x
	$(GO) test ./internal/rest/ -run none -bench BenchmarkQueryHit -benchtime 1x

# Serving-perf regression gate: re-measure the full serving matrix and the
# cache pass, emit the machine-readable BENCH_serving.json (submitted +
# served QPS at 1/8 shards × 1/4 groups × gomaxprocs 1/4/8 + nn tier,
# batch-size mean, peak goroutines, cache-off/on QPS + hit rates — CI
# archives it per commit so the serving perf trajectory is tracked across
# PRs), and fail if any served-QPS row regresses >15% against the committed
# baseline snapshot. After a deliberate perf change, refresh the baseline:
# cp BENCH_serving.json BENCH_baseline.json and commit it with the change.
bench-gate:
	$(GO) run ./cmd/rafiki-bench -serving BENCH_serving.json -gate BENCH_baseline.json

# Contention evidence: the same serving matrix under CPU/mutex/block
# profiling. Profiles and the run's report land in artifacts/profiles,
# which CI archives, so any bench-gate regression comes with the pprof
# data to diagnose it post-hoc.
profile:
	rm -rf artifacts/profiles
	$(GO) run ./cmd/rafiki-bench -serving artifacts/profiles/BENCH_serving.json -profile artifacts/profiles

# Top contended locks from the archived serving-bench profiles (run `make
# profile` first): the mutex profile ranks lock-hold contention, the block
# profile ranks channel/cond waits. This is the at-a-glance view of where
# the dispatch planes serialize — CI renders it into
# artifacts/profiles/contention.txt next to the raw pprof data.
contention:
	@test -f artifacts/profiles/mutex.pprof || { echo "contention: run 'make profile' first (no artifacts/profiles/mutex.pprof)"; exit 1; }
	@echo "== top 10 contended mutexes (lock-hold delay) =="
	$(GO) tool pprof -top -nodecount=10 artifacts/profiles/mutex.pprof
	@echo "== top 10 blocking sites (channel/cond waits) =="
	$(GO) tool pprof -top -nodecount=10 artifacts/profiles/block.pprof

# Workload-scenario benchmark (diurnal / bursty / hotkey traffic shapes
# through the serving runtime, prediction cache off vs on). Emits
# BENCH_scenarios.json, archived by CI next to the serving snapshot.
scenarios:
	$(GO) run ./cmd/rafiki-bench -scenario all -scenario-out BENCH_scenarios.json

# Durability gate: run the kill/restart round-trip test under -race with the
# journal written to artifacts/journal, then audit the surviving ledger's
# hash chain offline with rafiki-bench. The artifacts/ directory is
# CI-archived so a broken chain can be inspected post-mortem.
verify-journal:
	rm -rf artifacts/journal
	RAFIKI_JOURNAL_DIR=artifacts/journal $(GO) test . -run TestJournalKillRestartRoundTrip -race -count=1
	$(GO) run ./cmd/rafiki-bench -verify-journal artifacts/journal
