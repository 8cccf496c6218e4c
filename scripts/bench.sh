#!/bin/sh
# Runs the benchmark suites and records their results for the perf
# trajectory (see ROADMAP.md "Hot path & complexity"):
#
#   scripts/bench.sh          # both standing suites (make bench)
#   scripts/bench.sh micro    # hot-path micro-benchmarks -> BENCH_hotpath.json
#   scripts/bench.sh fleet    # fleet-scale scenarios     -> BENCH_fleet.json
#   scripts/bench.sh scale    # long-trace replay sweep   -> BENCH_scale.json
#
# The micro suite covers BenchmarkAdmitHotPath, BenchmarkFutureRequiredMemory,
# BenchmarkPeakEstimatorPush (the splice of one admitted request),
# BenchmarkWindowSampler (/add: one Add on a full 1000-entry window, 0
# allocs; /greater: the two conditional queries at a moving conditioning
# point), the fleet-scale BenchmarkFleetRoute series (replicas=96,
# BenchmarkFleetRoutePureStep and BenchmarkFleetRouteRebuild/replicas=96: 96
# replicas with full windows, the rows whose working set is a large replay's
# — nothing stepped, an eighth took a pure decode step, an eighth must
# rebuild), the cluster-front admission deadline
# heap, the MaxPrefillTokens trim, a decode-heavy engine run end to end
# (BenchmarkEngineDecodeHeavy), 4000 pure decode steps of a 48-request batch
# (BenchmarkEngineDecodeLong: /coast as built, /token-hook on the per-token
# path the coasted step replaces), the prefix-cache longest-match lookup
# (BenchmarkPrefixMatch, 0 allocs steady state), one decode step's
# handle-addressed KV growth over a 256-request batch (BenchmarkPoolGrow, 0
# allocs), the SLO-aware chunk sizer (BenchmarkChunkSchedule, 0 allocs — it
# runs inside every chunked iteration), and the live path's handler with no
# socket (BenchmarkServeGenerate: a plain reply and a 64-token streamed one,
# engine driver goroutine included). The fleet suite runs the cmd/fleetsim
# scenario family on one bursty ramp: reactive vs predictive
# autoscaling, disaggregated prefill/decode, the 2× overload-ramp admission
# comparison (shed on/off), the heterogeneous mixed-GPU fleet (cost-aware
# planner vs the premium flavor alone, compared on CostSeconds), the
# crash-storm fault trio (no faults / no recovery / full recovery, compared
# on SLA-met completions and served p99 TTFT), the multi-turn prefix-share
# sweep (cache-affinity vs cache-blind routing at equal provisioned
# capacity, compared on hit rate, served p99 TTFT, and prefill tokens
# computed), and the long-context chunked-prefill sweep (unchunked vs greedy
# fixed-chunk vs SLO-aware chunk scheduling at fixed capacity, compared on
# short-request served p99 TTFT and long-prompt attainment).
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
	go test -run '^$' -bench 'BenchmarkFleetRoute|BenchmarkClusterAdmit' \
		-benchmem ./internal/cluster/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkPrefillTrim|BenchmarkChunkSchedule|BenchmarkEngineDecode' \
		-benchmem ./internal/engine/ | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkPrefixMatch|BenchmarkPoolGrow' \
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
	# Fleet-scale SLA demos on the bursty ramp workload: reactive vs
	# predictive (Holt) autoscaling, the disaggregated prefill/decode
	# cluster with its dual-pool planner, the 2× overload ramp served three
	# ways (route-on-arrival, admission hold, deadline-aware shedding), the
	# heterogeneous mixed-GPU fleet judged on normalized CostSeconds, the
	# mid-burst crash-storm trio (no faults / no recovery / recovery
	# with retries, re-admission, and N+1 spares), the multi-turn
	# prefix-share sweep (cache-affinity vs cache-blind routing on a fixed
	# caching fleet, judged on hit rate, served p99 TTFT, and prefill
	# tokens computed), and the long-context chunked-prefill sweep
	# (long-prompt share × chunk policy {none, greedy, slo} at fixed
	# capacity, judged on short-request served p99 TTFT and long-prompt
	# attainment — the head-of-line-blocking acceptance axis).
	go run ./cmd/fleetsim -disagg -compare -overload -hetero -faults -multiturn -longctx -json BENCH_fleet.json

	# Fail loudly if the comparison did not refresh the record: a stale
	# BENCH_fleet.json would silently misreport the fleet trajectory.
	grep -q '"mode": "disaggregated-holt"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no disaggregated mode recorded" >&2
		exit 1
	}
	grep -q '"mode": "overload-shed"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no overload shedding mode recorded" >&2
		exit 1
	}
	grep -q '"mode": "hetero-cost"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no heterogeneous cost-aware mode recorded" >&2
		exit 1
	}
	grep -q '"mode": "faults-recover"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no fault-recovery mode recorded" >&2
		exit 1
	}
	grep -q '"mode": "multiturn-0.75-affinity"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no multi-turn prefix-caching sweep recorded" >&2
		exit 1
	}
	grep -q '"prefill_savings_vs_blind"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no cache-blind baseline for the prefix sweep" >&2
		exit 1
	}
	grep -q '"chunk_policy": "slo"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no SLO-aware chunked-prefill arm recorded" >&2
		exit 1
	}
	grep -q '"chunk_policy": "none"' BENCH_fleet.json || {
		echo "BENCH_fleet.json is stale: no unchunked baseline for the long-context sweep" >&2
		exit 1
	}

	# Trace parity: the observability layer must be a strict observer. Run
	# the fault-storm trio once recorder-disabled and once with every
	# export armed — the reports (and stdout) must be byte-identical, or a
	# trace-enabled run is no longer measuring the system it claims to.
	obsdir=$(mktemp -d)
	go run ./cmd/fleetsim -faults -json "$obsdir/off.json" |
		grep -v '^wrote ' > "$obsdir/off.out"
	go run ./cmd/fleetsim -faults -json "$obsdir/on.json" \
		-trace "$obsdir/trace.json" -spans "$obsdir/spans.csv" \
		-timeseries "$obsdir/ts.csv" -requests "$obsdir/reqs.csv" |
		grep -v '^wrote ' > "$obsdir/on.out"
	if ! cmp -s "$obsdir/off.json" "$obsdir/on.json" ||
		! cmp -s "$obsdir/off.out" "$obsdir/on.out"; then
		echo "observability parity broken: trace-enabled run diverged from the recorder-disabled run" >&2
		rm -rf "$obsdir"
		exit 1
	fi
	echo "observability parity: traced fault-storm run bit-identical to untraced"
	rm -rf "$obsdir"
}

run_scale() {
	# Long-trace replay throughput (make bench-scale): a streamed diurnal
	# day trace through the sequential reference core, the 1-worker batched
	# core, and the full-width batched core, on identical regenerated
	# streams. The binary hard-fails unless all three reports are
	# byte-identical, so a BENCH_scale.json that exists at all certifies
	# core equivalence at this scale. Tune with e.g.
	# `SCALE_REQUESTS=10000000 scripts/bench.sh scale` for the full 10M day.
	go run ./cmd/fleetsim -scale \
		-scale-requests "${SCALE_REQUESTS:-1000000}" \
		-workers "${SCALE_WORKERS:-8}" \
		-scale-repeat "${SCALE_REPEAT:-2}" \
		-json BENCH_scale.json

	# Fail loudly if the sweep did not refresh the record: a stale
	# BENCH_scale.json would silently misreport the replay trajectory.
	grep -q '"reports_match": true' BENCH_scale.json || {
		echo "BENCH_scale.json is stale: no report-equality certificate recorded" >&2
		exit 1
	}
	grep -q "\"workers\": ${SCALE_WORKERS:-8}" BENCH_scale.json || {
		echo "BENCH_scale.json is stale: widest run missing" >&2
		exit 1
	}
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
