#!/usr/bin/env bash
# Paired A/B of the whole-run benchmark: the working tree against a base
# commit, one workload, in alternating pairs so that host drift hits both
# sides alike.
#
#   scripts/pairs.sh <workload> [pairs] [base] [seed]
#   make pairs W=engine-closed N=10 BASE=HEAD
#
# It builds ./benchmark once from the working tree and once from <base>
# (default HEAD, exported with git archive), both into a temporary directory
# outside the checkout. Pair i runs both binaries at the seed (default 1; a
# claim must also hold on a seed not used while the change was written), the
# change first on even pairs and the base first on odd ones. It then prints, for
# requests_per_s (higher is better) and setup_s (lower is better), each side's
# median and quartiles, the ratio of the medians and how many pairs the change
# won. A claimed gain needs the change to win at least 9 of 10 pairs, with its
# median beyond the base's interquartile range. It exits non-zero if any run
# reports "correct":false.
#
# Every run also appends one JSON line to BENCH_pairs.jsonl at the root of the
# checkout: the two commits (the change is HEAD, marked "+dirty" when the
# working tree differs from it), workload, seed, pairs, nproc, Go version, and
# for each metric both sides' median and quartiles and the change's wins.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/pairs.sh <workload> [pairs] [base] [seed]}
pairs=${2:-10}
base=${3:-HEAD}
seed=${4:-1}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
go build -o "$tmp/change.bin" ./benchmark
(cd "$tmp/base" && go build -o "$tmp/base.bin" ./benchmark)

# metric <name> <result line> prints the metric's value.
metric() {
	printf '%s\n' "$2" | sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

bad=0
: > "$tmp/results"
for ((i = 0; i < pairs; i++)); do
	order="change base"
	if ((i % 2)); then
		order="base change"
	fi
	for side in $order; do
		line=$("$tmp/$side.bin" -workload "$workload" -seed "$seed" -trace 0 2>/dev/null | tail -n 1)
		case $line in
		*'"correct":true'*) ;;
		*)
			echo "pair $i $side: not correct: $line" >&2
			bad=1
			;;
		esac
		rps=$(metric requests_per_s "$line")
		setup=$(metric setup_s "$line")
		echo "pair $i $side requests_per_s=$rps setup_s=$setup" >&2
		echo "$i $side $rps $setup" >> "$tmp/results"
	done
done

change_rev=$(git rev-parse --short=12 HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	change_rev="$change_rev+dirty"
fi
base_rev=$(git rev-parse --short=12 "$base")

awk -v base="$base" -v workload="$workload" -v seed="$seed" \
	-v change_rev="$change_rev" -v base_rev="$base_rev" -v pairs="$pairs" \
	-v nproc="$(nproc)" -v gover="$(go env GOVERSION)" -v json="$tmp/json" '
function quantile(v, n, p,    h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sortv(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
}
function report(name, col, higher,    n, i, c, b, mc, mb, wins) {
	n = 0
	wins = 0
	for (i in pair) {
		n++
		c[n] = val[i, "change", col]
		b[n] = val[i, "base", col]
		if (higher ? c[n] > b[n] : c[n] < b[n]) wins++
	}
	sortv(c, n)
	sortv(b, n)
	mc = quantile(c, n, 0.5)
	mb = quantile(b, n, 0.5)
	printf("%-15s change median %.6g [%.6g, %.6g]  base median %.6g [%.6g, %.6g]  x%.3f  change won %d of %d pairs\n",
		name, mc, quantile(c, n, 0.25), quantile(c, n, 0.75),
		mb, quantile(b, n, 0.25), quantile(b, n, 0.75), mc / mb, wins, n)
	fields = fields sprintf(",\"%s\":{\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"base\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"wins\":%d}",
		name, mc, quantile(c, n, 0.25), quantile(c, n, 0.75), mb, quantile(b, n, 0.25), quantile(b, n, 0.75), wins)
}
{ pair[$1] = 1; val[$1, $2, 3] = $3; val[$1, $2, 4] = $4 }
END {
	printf("%s seed %s: working tree (change) against %s (base), median [q1, q3]\n", workload, seed, base)
	report("requests_per_s", 3, 1)
	report("setup_s", 4, 0)
	printf("{\"change\":\"%s\",\"base\":\"%s\",\"workload\":\"%s\",\"seed\":%s,\"pairs\":%s,\"nproc\":%s,\"go\":\"%s\"%s}\n",
		change_rev, base_rev, workload, seed, pairs, nproc, gover, fields) > json
}
' "$tmp/results"
cat "$tmp/json" >> BENCH_pairs.jsonl
exit "$bad"
