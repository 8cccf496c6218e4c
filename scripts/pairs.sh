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
# change first on even pairs and the base first on odd ones, and prints every
# run's values to stderr.
#
# It judges every end-to-end metric BENCHMARK.json lists, taking each one's
# name, direction ("better") and bound from that file: each side's median
# and quartiles, the ratio of the medians, how many pairs the change won and
# tied, "over bound" when the change's median is worse than the base's by
# more than the bound, as a share of the base's median, and "unresolved"
# when either side's quartiles lie further apart than that, and "GAIN" when
# the change holds a gain: it won at least 9 in 10 of the pairs (ties count
# for neither side), its median lies beyond the base's quartile on the
# better side (above the upper one, or below the lower one), and the medians
# differ by more than a tenth of the bound, as a share of the base's median
# (so a consistent shift too small to matter on a metric whose runs barely
# spread is no gain). It exits
# non-zero if any run reports "correct":false, any metric is over its bound,
# or a process running either benchmark binary outlives its run (it names
# and kills each such process).
#
# Every run also appends one JSON line to BENCH_pairs.jsonl at the root of the
# checkout: the two commits (the change is HEAD, marked "+dirty" when the
# working tree differs from it), workload, seed, pairs, nproc, Go version, and
# for each metric both sides' median and quartiles, the change's wins and ties,
# and whether it is over its bound, unresolved, or a gain.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/pairs.sh <workload> [pairs] [base] [seed]}
pairs=${2:-10}
base=${3:-HEAD}
seed=${4:-1}

# One "name better bound" line per end-to-end metric, in the file's order.
# BENCHMARK.json is written by `go test ./benchmark -update` (indented JSON,
# one key per line), which is the layout this reads.
metrics=$(awk '
/"end_to_end": *\[/ { in_list = 1; next }
in_list && /^ *\]/ { exit }
in_list && /"(name|better|bound)":/ {
	key = $1
	gsub(/[":]/, "", key)
	val = $2
	gsub(/[",]/, "", val)
	m[key] = val
}
in_list && /^ *}/ {
	if (m["name"] == "" || m["better"] !~ /^(higher|lower)$/ || m["bound"] == "") {
		print "BENCHMARK.json: malformed end_to_end entry" > "/dev/stderr"
		exit 1
	}
	print m["name"], m["better"], m["bound"]
	delete m
}
' BENCHMARK.json)
if [ -z "$metrics" ]; then
	echo "BENCHMARK.json: no end_to_end metrics" >&2
	exit 1
fi
names=$(printf '%s\n' "$metrics" | awk '{ print $1 }')

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
		if left=$(pgrep -af "^$tmp/(change|base)\.bin( |$)"); then
			echo "pair $i $side: process left running: $left" >&2
			pkill -f "^$tmp/(change|base)\.bin( |$)" || true
			bad=1
		fi
		case $line in
		*'"correct":true'*) ;;
		*)
			echo "pair $i $side: not correct: $line" >&2
			bad=1
			;;
		esac
		shown="pair $i $side"
		for name in $names; do
			v=$(metric "$name" "$line")
			if [ -z "$v" ]; then
				echo "pair $i $side: no $name in: $line" >&2
				bad=1
				continue
			fi
			shown="$shown $name=$v"
			echo "$i $side $name $v" >> "$tmp/results"
		done
		echo "$shown" >&2
	done
done

change_rev=$(git rev-parse --short=12 HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	change_rev="$change_rev+dirty"
fi
base_rev=$(git rev-parse --short=12 "$base")

printf '%s\n' "$metrics" > "$tmp/metrics"
over=0
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
function abs(x) { return x < 0 ? -x : x }
function report(name, higher, bound,    n, i, c, b, mc, mb, qc1, qc3, qb1, qb3, wins, ties, worse, flag, wide, gain, ratio) {
	n = 0
	wins = 0
	ties = 0
	for (i in pair) {
		if (!((i, "change", name) in val) || !((i, "base", name) in val)) continue
		n++
		c[n] = val[i, "change", name]
		b[n] = val[i, "base", name]
		if (c[n] == b[n]) ties++
		else if (higher ? c[n] > b[n] : c[n] < b[n]) wins++
	}
	if (n == 0) return
	sortv(c, n)
	sortv(b, n)
	mc = quantile(c, n, 0.5)
	qc1 = quantile(c, n, 0.25)
	qc3 = quantile(c, n, 0.75)
	mb = quantile(b, n, 0.5)
	qb1 = quantile(b, n, 0.25)
	qb3 = quantile(b, n, 0.75)
	worse = higher ? mb - mc : mc - mb
	flag = worse > bound * abs(mb)
	if (flag) over++
	wide = qc3 - qc1 > bound * abs(mc) || qb3 - qb1 > bound * abs(mb)
	gain = 10 * wins >= 9 * n && (higher ? mc > qb3 : mc < qb1) && abs(mc - mb) > bound / 10 * abs(mb)
	ratio = mb != 0 ? sprintf("x%.3f", mc / mb) : "x-"
	printf("%-26s change %.6g [%.6g, %.6g]  base %.6g [%.6g, %.6g]  %s  won %d, tied %d of %d  bound %g%s%s%s\n",
		name, mc, qc1, qc3, mb, qb1, qb3, ratio, wins, ties, n, bound,
		flag ? "  OVER BOUND" : "", wide ? "  UNRESOLVED" : "", gain ? "  GAIN" : "")
	fields = fields sprintf(",\"%s\":{\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"base\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"wins\":%d,\"ties\":%d,\"over_bound\":%s,\"unresolved\":%s,\"gain\":%s}",
		name, mc, qc1, qc3, mb, qb1, qb3, wins, ties, flag ? "true" : "false", wide ? "true" : "false", gain ? "true" : "false")
}
FNR == NR { order[++nm] = $1; higher[$1] = $2 == "higher"; bound[$1] = $3; next }
{ pair[$1] = 1; val[$1, $2, $3] = $4 }
END {
	printf("%s seed %s: working tree (change) against %s (base), median [q1, q3]\n", workload, seed, base)
	for (k = 1; k <= nm; k++) report(order[k], higher[order[k]], bound[order[k]])
	printf("{\"change\":\"%s\",\"base\":\"%s\",\"workload\":\"%s\",\"seed\":%s,\"pairs\":%s,\"nproc\":%s,\"go\":\"%s\"%s}\n",
		change_rev, base_rev, workload, seed, pairs, nproc, gover, fields) > json
	exit (over > 0)
}
' "$tmp/metrics" "$tmp/results" || over=1
cat "$tmp/json" >> BENCH_pairs.jsonl
if ((over)); then
	echo "a metric's median is worse than the base's by more than its bound" >&2
	bad=1
fi
exit "$bad"
