GO ?= go

.PHONY: build test vet fmt-check staticcheck bench bench-smoke bench-fleet bench-scale profile pairs pairs-all chaos fuzz examples pins cover ci

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

# bench-fleet refreshes only BENCH_fleet.json without the micro-bench suite:
# `fleetsim fleet`, the six cmd/fleetsim scenarios ramp (reactive vs
# predictive vs disaggregated), overload, hetero, faults, multiturn and
# longctx, each checked against its win condition.
bench-fleet:
	./scripts/bench.sh fleet

# bench-scale refreshes BENCH_scale.json: `fleetsim scale`, the streamed
# million-request day trace replayed twice, hard-failing unless both repeats
# report byte-identically and every request finishes. The coasting-vs-
# per-step equivalence is TestCoastRunMatchesPerStepPath's, under chaos;
# `go test ./cmd/fleetsim` checks the record's shape and constants.
bench-scale:
	./scripts/bench.sh scale

# profile runs one Go benchmark B in package PKG under the CPU profiler and
# prints the profile's cumulative top (pprof -top -cum), so a perf change can
# be profiled without patching benchmark/. The test binary and the profile go
# to .profile/; B is a -bench pattern, one regexp per sub-benchmark level.
# e.g. make profile B=BenchmarkEngineDecodeLong/queued PKG=./internal/engine
B ?= BenchmarkAdmitHotPath/admit-wide
PKG ?= ./internal/core
profile:
	@mkdir -p .profile
	$(GO) test -run '^$$' -bench '$(B)' -benchtime 2s \
		-cpuprofile .profile/cpu.prof -o .profile/bench.test $(PKG)
	$(GO) tool pprof -top -cum .profile/bench.test .profile/cpu.prof | head -n 40

# pairs compares the whole-run benchmark (BENCHMARK.json) of the working tree
# with a base commit on one workload, over N pairs whose order alternates
# (scripts/pairs.sh): for every end-to-end metric BENCHMARK.json lists, each
# side's median and quartiles, how many pairs the change won, whether its
# median is worse than the base's by more than the metric's bound, and GAIN
# when it won 9 in 10 pairs, its median lies beyond the base's quartile and
# the medians differ by more than a tenth of the bound. It fails
# if any run reports "correct":false, any metric is over its bound, or a
# process running either benchmark binary outlives its run (pgrep -f; it
# names and kills each one).
# engine-closed takes ~6 min at N=10. SEED (default 1) is the workload seed;
# a claimed gain must also hold on a second one, e.g.
# make pairs W=engine-closed SEED=7.
W ?= engine-closed
N ?= 10
BASE ?= HEAD
SEED ?= 1
pairs:
	./scripts/pairs.sh $(W) $(N) $(BASE) $(SEED)

# pairs-all runs scripts/pairs.sh for every workload BENCHMARK.json lists, at
# each seed in SEEDS, with N and BASE as for pairs: at the defaults, eight
# runs (four workloads, seeds 1 and 7) — what a change that claims no gain
# shows for every workload, e.g. make pairs-all N=10. It carries on past a
# failed run, names every failed one at the end and then exits non-zero.
SEEDS ?= 1 7
pairs-all:
	@workloads=$$(sed -n '/"workloads"/,/^  \]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); \
	[ -n "$$workloads" ] || { echo "pairs-all: no workloads in BENCHMARK.json"; exit 1; }; \
	failed=; \
	for w in $$workloads; do \
		for s in $(SEEDS); do \
			echo "pairs-all: $$w seed $$s"; \
			./scripts/pairs.sh "$$w" $(N) $(BASE) "$$s" || failed="$$failed $$w@$$s"; \
		done; \
	done; \
	if [ -n "$$failed" ]; then echo "pairs-all: failed:$$failed"; exit 1; fi

# chaos runs, under the race detector and over CHAOS_SEEDS seeds (default 5),
# TestFeatureMatrix — a pairwise-covering table of the cluster's features
# (disaggregation, mixed GPUs, admission, a crash storm with or without
# recovery, prefix cache, chunked prefill, planner), each cell held to
# conservation, KV-pool, trace-export and inert-twin checks — beside the
# permanent-crash, KV-link, placement, lagged-estimator, probe-floor,
# step-kind and coasting pins and the oracles the warm paths are held to. It first fails if an
# alternative of its -run regex matches no test, so a deleted test cannot
# silently leave the sweep.
# Widen with e.g. `make chaos CHAOS_SEEDS=50`.
CHAOS_SEEDS ?= 5
CHAOS_RUN = TestFeatureMatrix|TestPermanentCrash|TestBackoffProperties|TestLinkBusyNeverRegresses|TestCrashEvacuatesEverything|TestChunkPolicyEquivalence|TestHerd|TestPlacement|TestWaitingSet|TestLagged|TestProbeFloor|TestPrunedSweep|TestPureDecode|TestAdmitOnly|TestCoast|TestWarmProbeMatchesNaive|TestPlannerVectorMatchesScalarRule|TestFlavorThroughputClosedForms|TestRefusesAgainMatchesAdmit
CHAOS_PKGS = ./internal/cluster/ ./internal/kv/ ./internal/engine/
chaos:
	@tests=$$($(GO) test -list . $(CHAOS_PKGS)) || exit 1; \
	for alt in $$(echo '$(CHAOS_RUN)' | tr '|' ' '); do \
		echo "$$tests" | grep -q -- "$$alt" || { echo "chaos: $$alt matches no test"; exit 1; }; \
	done
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

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

# examples runs every program under examples/ to completion and diffs its
# stdout against the golden beside it (testdata/stdout.golden; every example
# is deterministic), so a library change that breaks one, or moves one of its
# numbers, fails here rather than behind a passing go build. Re-record a
# golden only for a change meant to move it:
#   go run ./examples/fleet > examples/fleet/testdata/stdout.golden
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for d in ./examples/*/; do \
		echo "example $$d"; \
		$(GO) run "$$d" > "$$out" || exit 1; \
		diff -u "$${d}testdata/stdout.golden" "$$out" || exit 1; \
	done

# pins runs every test that holds a committed record byte for byte, then the
# example goldens: the fleet record and its recorded exports, the scale
# record's shape, the paper's tables (pfsim), the routing decisions of two
# whole days, and the session generator's prefix hashes. A change that moves a
# decision or a recorded event fails here under the record's own name.
pins:
	$(GO) test -count=1 -run '^(TestFleetReproducesRecord|TestScaleRecordIsCurrent|TestRecordedOutputMatchesGolden)$$' ./cmd/fleetsim
	$(GO) test -count=1 -run '^TestAllMatchesGolden$$' ./cmd/pfsim
	$(GO) test -count=1 -run '^TestFutureHeadroomDecisionsGolden$$' ./internal/cluster
	$(GO) test -count=1 -run '^TestSessionsHashesGolden$$' ./internal/workload
	$(MAKE) examples

ci: build vet fmt-check staticcheck pins test bench-smoke chaos fuzz
