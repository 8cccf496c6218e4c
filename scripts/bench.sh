#!/bin/sh
# Runs the benchmark suites and records their results for the perf
# trajectory (see ROADMAP.md "Hot path & complexity"):
#
#   scripts/bench.sh          # both standing suites (make bench)
#   scripts/bench.sh micro    # hot-path micro-benchmarks -> BENCH_hotpath.json
#   scripts/bench.sh fleet    # fleet-scale scenarios     -> BENCH_fleet.json
#   scripts/bench.sh scale    # long-trace replay, twice    -> BENCH_scale.json
#
# The micro suite covers BenchmarkAdmitHotPath (/naive times the clone+sort
# admission oracle of the core tests, as BenchmarkFleetRouteNaive times the
# cluster tests' naive routing oracle: reference rows, not production paths;
# /refuse, /refuse-repeat and /refuse-drawn the three ways a knee round is
# refused, /admit-wide a drawn round over 50 running requests that admits,
# /admit-light a 16-request round admitted under the conservative budget
# before anything is drawn),
# BenchmarkFutureRequiredMemory,
# BenchmarkPeakEstimatorPush (the splice of one admitted request),
# BenchmarkWindowSampler (/add and /add-long: one Add on a full 1000-entry
# window at values below 4096 and 8192, 0 allocs; /greater: the two
# conditional queries at a moving conditioning point), the fleet-scale BenchmarkFleetRoute series (replicas=96,
# BenchmarkFleetRoutePureStep and BenchmarkFleetRouteRebuild/replicas=96: 96
# replicas with full windows, the rows whose working set is a large replay's
# — nothing stepped, an eighth took a pure decode step, an eighth must
# rebuild), BenchmarkFleetCoast (16 replicas decoding long outputs between
# sparse arrivals, timed per arrival: the event loop over the steps between
# two arrivals, nearly all of them coasted), the cluster-front admission deadline
# heap, the MaxPrefillTokens trim, a decode-heavy engine run end to end
# (BenchmarkEngineDecodeHeavy), 4000 pure decode steps of a 48-request batch
# (BenchmarkEngineDecodeLong: /coast as built, /token-hook on the per-token
# path the coasted step replaces, /queued with a request queued behind the
# batch that every step's admission round refuses, /staggered with outputs
# over 64-4000 tokens re-submitted as they finish, so that finishes and first
# tokens recur on coasted steps), the prefix-cache lookup
# of every block
# of a chain with a pin/unpin cycle (BenchmarkPrefixMatch, 0 allocs steady
# state), one churn step of a full prefix cache through reclaim, spill into
# a full offload store and restore (BenchmarkPrefixChurn, 0 allocs), one
# decode step's handle-addressed KV growth over a 256-request batch
# (BenchmarkPoolGrow, 0 allocs), the SLO-aware chunk sizer (BenchmarkChunkSchedule, 0 allocs — it
# runs inside every chunked iteration), and the live path's handler with no
# socket (BenchmarkServeGenerate: a plain reply and a 64-token streamed one,
# engine driver goroutine included). The fleet suite runs the cmd/fleetsim
# scenarios of `fleetsim fleet` (ramp, overload, hetero, faults, multiturn,
# longctx); fleetsim exits non-zero if any scenario's win condition fails,
# and `go test ./cmd/fleetsim` holds the committed BENCH_fleet.json to it.
# The scale replay hard-fails unless its two repeats report identically and
# every one of the day's requests finishes, and writes BENCH_scale.json only
# then.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-all}"

run_micro() {
	out=BENCH_hotpath.json
	tmp=$(mktemp)
	trap 'rm -f "$tmp"' EXIT

	go test -run '^$' -bench 'BenchmarkAdmitHotPath|BenchmarkFutureRequiredMemory|BenchmarkPeakEstimatorPush' \
		-benchmem ./internal/core/ | tee "$tmp"
	go test -run '^$' -bench 'BenchmarkWindowSampler' \
		-benchmem ./internal/dist/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkFleetRoute|BenchmarkFleetCoast|BenchmarkClusterAdmit' \
		-benchmem ./internal/cluster/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkChunkSchedule|BenchmarkEngineDecode' \
		-benchmem ./internal/engine/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkPrefixMatch|BenchmarkPrefixChurn|BenchmarkPoolGrow' \
		-benchmem ./internal/kv/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkServeGenerate' \
		-benchmem ./internal/server/ | tee -a "$tmp"

	awk '
	BEGIN { print "["; first = 1 }
	/^Benchmark/ {
		name = $1; ns = ""; allocs = "null"
		sub(/-[0-9]+$/, "", name) # GOMAXPROCS suffix: keep names host-independent
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			if ($i == "allocs/op") allocs = $(i - 1)
		}
		if (ns == "") next
		if (!first) printf(",\n")
		first = 0
		printf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs)
	}
	END { print "\n]" }
	' "$tmp" > "$out"

	echo "wrote $out"
}

run_fleet() {
	go run ./cmd/fleetsim -json BENCH_fleet.json fleet
}

run_scale() {
	go run ./cmd/fleetsim -json BENCH_scale.json scale
}

case "$mode" in
all)
	run_micro
	run_fleet
	;;
micro)
	run_micro
	;;
fleet)
	run_fleet
	;;
scale)
	run_scale
	;;
*)
	echo "usage: $0 [all|micro|fleet|scale]" >&2
	exit 2
	;;
esac
