GO ?= go

.PHONY: build test vet fmt-check staticcheck bench bench-smoke bench-fleet bench-scale chaos fuzz cover ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# cover runs the suite with coverage and prints the total; cover.out feeds
# the CI coverage summary/artifact.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and
# degrades to a skip otherwise (offline sandboxes can't install it); CI
# installs and enforces it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI enforces it)"; \
	fi

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

# bench runs the scheduler hot-path micro-benchmarks and records ns/op and
# allocs/op in BENCH_hotpath.json so future PRs can track the perf
# trajectory (see ROADMAP.md "Hot path & complexity"), then the fleet-scale
# scenario family into BENCH_fleet.json.
bench:
	./scripts/bench.sh

# bench-smoke runs every micro-benchmark under internal/ for one iteration:
# no number is read, it only proves the benchmarks scripts/bench.sh records
# still build and run to completion, so that file cannot rot unseen.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# bench-fleet refreshes only BENCH_fleet.json (the cmd/fleetsim scenario
# family: autoscaling comparison, disaggregation, overload shedding, and
# the heterogeneous mixed-GPU fleet) without the micro-bench suite.
bench-fleet:
	./scripts/bench.sh fleet

# bench-scale refreshes BENCH_scale.json: the streamed million-request day
# trace replayed on the reference, 1-worker, and full-width simulation
# cores, hard-failing unless all three reports are byte-identical. Scale up
# with e.g. `make bench-scale SCALE_REQUESTS=10000000`.
bench-scale:
	SCALE_REQUESTS=$(SCALE_REQUESTS) SCALE_WORKERS=$(SCALE_WORKERS) \
		SCALE_REPEAT=$(SCALE_REPEAT) ./scripts/bench.sh scale

# chaos sweeps the fault-injection suite under the race detector: randomized
# crash/retry conservation across CHAOS_SEEDS seeds (default 5), the KV-link
# backoff/busy-monotonicity properties, the 4-seed faults-disabled
# bit-identical equivalence pin, the parallel-core fault-storm sweep
# (batched core vs sequential reference, decision-for-decision, per seed),
# the 4-seed prefix-caching-disabled equivalence pin, exactly-once
# conservation through the full KV reuse hierarchy (cache hits, eviction,
# offload, crash-induced cache drops) under a crash storm, the chunked-
# prefill pins (chunking-disabled bit-identity, chunked parallel-core
# equivalence, greedy-vs-degenerate-SLO policy equivalence), exactly-once
# conservation through chunked prefill × prefix-cache hits × crash storms,
# and the placement-visibility pins (TestHerd*: a burst spreads over
# identical replicas; TestPlacement*: spliced warm estimator ≡ rebuilt ≡
# naive reference and the per-replica ledger after every arrival of a crash
# storm, cores agreeing on bursty streams), and the lagged-estimator pins
# (TestLagged*: an estimator kept across pure decode steps bounds the exact
# probe from below after every event of six small fleets, and every routing
# decision equals the exact sweep's), and the coasted-decode-step pin
# (TestCoastMatchesPerTokenPath: an engine that owes its batch tokens and one
# that walks it every step are indistinguishable, per case and seed).
# Widen with e.g. `make chaos CHAOS_SEEDS=50`.
CHAOS_SEEDS ?= 5
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 \
		-run 'TestFaultConservation|TestNoRecoveryLosesTerminally|TestCrashRecoveryWithoutAdmission|TestFaultsDisabledEquivalence|TestBackoffProperties|TestLinkBusyNeverRegresses|TestCrashEvacuatesEverything|TestParallelFaultStormChaos|TestPrefixDisabledEquivalence|TestPrefixCacheConservation|TestChunkingDisabledEquivalence|TestChunkedParallelEquivalence|TestChunkedConservation|TestChunkPolicyEquivalence|TestHerd|TestPlacement|TestWaitingSet|TestLagged|TestPureDecode|TestCoast' \
		./internal/cluster/ ./internal/kv/ ./internal/engine/

# fuzz runs every native fuzz target in the module (go test -list finds
# them, so a new FuzzXxx needs no edit here) for FUZZTIME each, one at a
# time: -fuzz takes a single target of a single package. The committed seed
# corpora under testdata/fuzz already run as plain tests in `make test`; a
# failure here writes its input into that directory — commit it with the fix.
FUZZTIME ?= 10s
fuzz:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { names[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, names[i]; n = 0 }' | \
	while read -r pkg fn; do \
		echo "fuzz $$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime=$(FUZZTIME) "$$pkg" || exit 1; \
	done

ci: build vet fmt-check staticcheck test bench-smoke chaos fuzz
