# Standard verification gate: `make check` is what CI (and every PR) runs.

GO ?= go

.PHONY: check fmt vet build test race repeat benchmark-test benchmark-smoke bench bench-smoke verify-journal

check: fmt vet build race repeat benchmark-test benchmark-smoke bench-smoke verify-journal

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
# backlog the submit benchmark accumulates. Last, one sequential
# 150-trial study on the Bayesian advisor, with its allocations, one 16-sample
# batch through the nn kernel (Forward×16 vs ForwardBatch), one short and one
# long seeded stream (lazy sim.RNG vs math/rand), and one REST cache hit
# (handler alone, then over a loopback keep-alive connection).
bench-smoke:
	$(GO) test ./internal/infer/ -run none -bench BenchmarkReplicaScaling -benchtime 1x
	$(GO) test . -run none -bench BenchmarkSubmit -benchtime 20000x
	$(GO) test ./internal/advisor/ -run none -bench BenchmarkBayesStudy -benchtime 1x
	$(GO) test ./internal/nn/ -run none -bench BenchmarkForwardBatch -benchtime 1x
	$(GO) test ./internal/sim/ -run none -bench BenchmarkNewRNG -benchtime 1x
	$(GO) test ./internal/rest/ -run none -bench BenchmarkQueryHit -benchtime 1x

# Durability gate: run the kill/restart round-trip test under -race with the
# journal written to artifacts/journal, then audit the surviving ledger's
# hash chain offline with rafiki-bench. The artifacts/ directory is
# CI-archived so a broken chain can be inspected post-mortem.
verify-journal:
	rm -rf artifacts/journal
	RAFIKI_JOURNAL_DIR=artifacts/journal $(GO) test . -run TestJournalKillRestartRoundTrip -race -count=1
	$(GO) run ./cmd/rafiki-bench -verify-journal artifacts/journal
