# Standard verification gate: `make check` is what CI (and every PR) runs.

GO ?= go

.PHONY: check fmt vet build test race repeat exp-golden portable benchmark-test benchmark-smoke bench bench-smoke verify-journal fuzz-smoke

check: fmt vet build race repeat exp-golden portable benchmark-test benchmark-smoke bench-smoke verify-journal fuzz-smoke

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
# serving packages, and of the tuning package whose live workers contend on
# one master, at two procs, where timing-dependent tests flake first.
# The timeout bounds a decision point that never comes back to minutes, not
# go test's 10-minute default per package. Then ten race-detector runs of the
# prediction cache, whose singleflight and invalidation-race tests all
# contend on its one lock.
repeat:
	GOMAXPROCS=2 $(GO) test -count=5 -timeout 3m . ./internal/infer/... ./internal/predcache ./internal/rest ./internal/sim ./internal/tune
	GOMAXPROCS=2 $(GO) test -race -count=10 -timeout 3m ./internal/predcache

# Every paper figure at quick scale is deterministic (the same at any
# GOMAXPROCS): regenerate them all, once at the host's procs and once at one,
# and diff each against the committed output, so a refactor that claims to
# change no figure is checked. A failed run truncates the output, which the
# diff catches too.
exp-golden:
	$(GO) run ./cmd/rafiki-bench -exp all | diff -u testdata/exp_quick_golden.txt -
	GOMAXPROCS=1 $(GO) run ./cmd/rafiki-bench -exp all | diff -u testdata/exp_quick_golden.txt -

# The Bayesian advisor's linear algebra runs amd64 assembly where the CPU has
# AVX2 and FMA. Test the portable fallback on its own (the purego tag turns
# the kernels off), and vet it cross-compiled for arm64, where there is no
# assembly at all; neither needs anything beyond the local toolchain.
portable:
	$(GO) test -tags purego ./internal/linalg ./internal/gp ./internal/advisor
	GOARCH=arm64 $(GO) vet ./internal/linalg ./internal/gp ./internal/advisor

# The end-to-end benchmark is its own module (benchmark/go.mod), so
# `go test ./...` never reaches its tests: the manifest and the binary's
# metric tables agree, the compile surface is narrow, a run leaves nothing
# outside .bench_build/.
benchmark-test:
	$(GO) -C benchmark test ./...

# A 3-second pass of every BENCHMARK.json workload for its output checks
# (label/votes/re-vote, cache consistency, accuracy band, <=1 % failures,
# open-loop lateness, watchdog): the binary exits 1 when a check sets
# correct=false. No number is gated here; compare timings by alternating
# runs of two commits on one host.
BENCHMARK_WORKLOADS = query_sim_paced query_nn_saturated http_hotkey train_bayes

benchmark-smoke:
	@for w in $(BENCHMARK_WORKLOADS); do \
		echo "== benchmark-smoke $$w"; \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done

# Queue and serving micro-benchmarks (ring buffer vs the seed's copy-shift).
bench:
	$(GO) test ./internal/infer/ -run none -bench BenchmarkQueuePopN -benchmem

# One pass of the replica-scaling benchmark (virtual time, deterministic)
# and a bounded run of the submit benchmark (wall clock, eight submitters
# into the one request FIFO, every Submit arming a coalesced sweep): cheap
# gates that the dispatch hot path still scales with replicas and that a
# submit still costs one lock. The fixed iteration count bounds the standing
# backlog the submit benchmark accumulates. Then a bounded run of the
# submit → wait → release round trip (eight callers, every request served
# on the paced sim backend), the path the submit benchmark leaves out, with
# its allocations per served request, the amortized dispatch included.
# Last, one sequential
# 150-trial study on the Bayesian advisor, with its allocations, one batch of
# expected improvements (512 candidates, 150 observations) and one
# hyper-parameter fit (150 observations, with its allocations) on the vector
# kernels and on the portable loops, one 16-sample
# batch through the nn kernel (Forward×16 vs ForwardBatch), one RL learning
# step (the agent's TD update, with its allocations), one short and one
# long seeded stream (lazy sim.RNG vs math/rand), one REST cache hit
# (handler alone, then over a loopback keep-alive connection), and a bounded
# run of parallel prediction-cache hits at one and two procs.
bench-smoke:
	$(GO) test ./internal/infer/ -run none -bench BenchmarkReplicaScaling -benchtime 1x
	$(GO) test . -run none -bench '^BenchmarkSubmit$$' -benchtime 20000x
	$(GO) test . -run none -bench '^BenchmarkSubmitWait$$' -benchtime 20000x -benchmem
	$(GO) test ./internal/advisor/ -run none -bench BenchmarkBayesStudy -benchtime 1x
	$(GO) test ./internal/gp/ -run none -bench BenchmarkExpectedImprovements -benchtime 1x
	$(GO) test ./internal/gp/ -run none -bench BenchmarkFitHyperparams -benchtime 1x -benchmem
	$(GO) test ./internal/nn/ -run none -bench BenchmarkForwardBatch -benchtime 1x
	$(GO) test ./internal/rl/ -run none -bench BenchmarkAgentUpdate -benchtime 100x -benchmem
	$(GO) test ./internal/sim/ -run none -bench BenchmarkNewRNG -benchtime 1x
	$(GO) test ./internal/rest/ -run none -bench BenchmarkQueryHit -benchtime 1x
	$(GO) test ./internal/predcache/ -run none -bench '^BenchmarkGetOrComputeHit$$' -cpu 1,2 -benchtime 100000x

# Durability gate: run the kill/restart round-trip test under -race with the
# journal written to artifacts/journal, then audit the surviving ledger's
# hash chain offline with rafiki-bench. The artifacts/ directory is
# CI-archived so a broken chain can be inspected post-mortem.
verify-journal:
	rm -rf artifacts/journal
	RAFIKI_JOURNAL_DIR=artifacts/journal $(GO) test . -run TestJournalKillRestartRoundTrip -race -count=1
	$(GO) run ./cmd/rafiki-bench -verify-journal artifacts/journal

# Ten seconds of coverage-guided fuzzing each of the offline chain verifier
# (any segment bytes verify without a panic and with a self-consistent
# result), of deployment-spec defaulting and validation (idempotent
# defaults, no panic, no NaN in an accepted spec) and of live reconciles
# (a refused one changes nothing, an accepted one records the defaulted spec,
# cache stats follow the cache block). `go test ./...` replays only their
# seed inputs.
fuzz-smoke:
	$(GO) test -run none -fuzz FuzzVerifyDir -fuzztime 10s ./internal/journal
	$(GO) test -run none -fuzz FuzzDeploymentSpec -fuzztime 10s .
	$(GO) test -run none -fuzz FuzzReconcileSpec -fuzztime 10s .
