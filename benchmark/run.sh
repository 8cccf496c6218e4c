#!/usr/bin/env bash
# Builds the benchmark once, into .bench_build/ at the root of the checkout,
# and runs it. This is the command BENCHMARK.json declares.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the arguments pass through to the binary
#   benchmark/run.sh [seed]
#       the four workloads in a fixed order, then their traced runs, merged
#       into one JSON object on standard output:
#       {"seed": n, "workloads": {"<name>": {"end_to_end": {...}, "per_layer": {...}}}}
set -euo pipefail
cd "$(dirname "$0")/.."

build=.bench_build
mkdir -p "$build"
# Keep the toolchain's cache inside the checkout: a run writes nowhere else.
export GOCACHE="$PWD/$build/gocache"
go build -o "$build/benchmark" ./benchmark

if [ $# -gt 0 ] && [ "${1#-}" != "$1" ]; then
	exec "$build/benchmark" "$@"
fi

seed=${1:-1}
names=(engine-closed replay-day storm-product serve-http)
declare -A e2e layers
# The runs' own tables go to standard error; the last line is the result.
for w in "${names[@]}"; do
	e2e[$w]=$("$build/benchmark" -workload "$w" -seed "$seed" -trace 0 | tee /dev/stderr | tail -n 1)
done
for w in "${names[@]}"; do
	layers[$w]=$("$build/benchmark" -workload "$w" -seed "$seed" -trace 1 | tee /dev/stderr | tail -n 1)
done
printf '{"seed":%s,"workloads":{' "$seed"
sep=
for w in "${names[@]}"; do
	printf '%s"%s":{"end_to_end":%s,"per_layer":%s}' "$sep" "$w" "${e2e[$w]}" "${layers[$w]}"
	sep=,
done
printf '}}\n'
