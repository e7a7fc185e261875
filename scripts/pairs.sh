#!/bin/sh
# Alternating paired runs of the repository benchmark on two checkouts,
# and the claim rule applied to them: a gain is resolved when, over at
# least ten pairs, the change is ahead in nine of ten and its median is
# ahead by more than the distance between the quartiles of the parent's
# runs.
#
#   sh scripts/pairs.sh <parent-dir> <change-dir> <workload> <pairs> <first-seed>
#
# Pair i runs benchmark/run.sh in both checkouts with seed first-seed+i-1,
# the parent first in odd pairs and the change first in even ones, so a
# host that drifts over minutes slows both sides alike. Every run is
# printed, then one row per end-to-end metric of the parent's
# BENCHMARK.json. run.sh puts the checkout's path into the environment,
# and a longer path alone has measured 7-11 % slower, so the two
# directories must have paths of one length.
set -eu

if [ $# -ne 5 ]; then
	echo "usage: $0 <parent-dir> <change-dir> <workload> <pairs> <first-seed>" >&2
	exit 2
fi
parent=$(cd "$1" && pwd -P)
change=$(cd "$2" && pwd -P)
workload=$3 pairs=$4 seed=$5
if [ "$parent" = "$change" ]; then
	echo "pairs: both directories are $parent" >&2
	exit 2
fi
if [ ${#parent} -ne ${#change} ]; then
	echo "pairs: $parent and $change differ in length (${#parent}, ${#change}): the path is in the environment of what is measured; give the two checkouts names of the same length" >&2
	exit 2
fi

runs=$(mktemp)
trap 'rm -f "$runs" "$runs.out"' EXIT

# one_run <side> <dir> <pair> <seed> appends the run's end-to-end metrics
# to $runs as "side pair metric value" and prints them on one line.
one_run() {
	if ! bash "$2/benchmark/run.sh" --workload "$workload" --seed "$4" --seconds 15 --trace 0 > "$runs.out" 2>&1 ||
		! tail -n 1 "$runs.out" | grep -q '"correct":true'; then
		cat "$runs.out" >&2
		echo "pairs: $1 run of pair $3 (seed $4) failed or was incorrect" >&2
		exit 1
	fi
	awk -v w="$workload" -v side="$1" -v pair="$3" -v seed="$4" -v runs="$runs" '
		$1 == w && NF == 4 { print side, pair, $2, $3 >> runs; line = line " " $2 "=" $3 }
		END { printf "pair %2d seed %-4d %-6s%s\n", pair, seed, side, line }' "$runs.out"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		one_run parent "$parent" "$i" "$seed"
		one_run change "$change" "$i" "$seed"
	else
		one_run change "$change" "$i" "$seed"
		one_run parent "$parent" "$i" "$seed"
	fi
	i=$((i + 1)) seed=$((seed + 1))
done

# The metrics and which direction is better come from the parent's
# BENCHMARK.json, read before the runs.
awk -v pairs="$pairs" '
	function sorted(side, m, out,    i, j, t) {
		for (i = 1; i <= pairs; i++) out[i] = v[side, i, m]
		for (i = 2; i <= pairs; i++)
			for (j = i; j > 1 && out[j-1] > out[j]; j--) { t = out[j]; out[j] = out[j-1]; out[j-1] = t }
	}
	# quantile is the k-th quartile as statistics.quantiles(n=4) places it
	# (benchmark/README.md, "Steadiness").
	function quantile(s, k,    j, d) {
		if (pairs < 2) return s[1]
		j = int(k * (pairs + 1) / 4); if (j < 1) j = 1; if (j > pairs - 1) j = pairs - 1
		d = k * (pairs + 1) - j * 4
		return (s[j] * (4 - d) + s[j+1] * d) / 4
	}
	NR == FNR {
		if ($0 ~ /"end_to_end"/) on = 1
		if (on && $1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
		if (on && $1 == "\"better\":") { gsub(/[",]/, "", $2); metric[++nm] = name; better[name] = $2 }
		if (on && $1 ~ /^\]/) on = 0
		next
	}
	{ v[$1, $2, $3] = $4 }
	END {
		printf "\n%-18s %-6s %13s %13s %8s %12s %6s  %s\n", "metric", "better", "parent median", "change median", "change", "parent IQR", "ahead", "claim rule"
		for (k = 1; k <= nm; k++) {
			m = metric[k]; wins = losses = 0
			sign = better[m] == "higher" ? 1 : -1
			for (i = 1; i <= pairs; i++) {
				d = sign * (v["change", i, m] - v["parent", i, m])
				if (d > 0) wins++
				if (d < 0) losses++
			}
			sorted("parent", m, p); sorted("change", m, c)
			pm = quantile(p, 2); cm = quantile(c, 2); iqr = quantile(p, 3) - quantile(p, 1)
			gain = sign * (cm - pm)
			verdict = "no change"
			if (gain > 0) verdict = (wins * 10 >= pairs * 9 && gain > iqr) ? "gain resolved" : "gain unresolved"
			if (gain < 0) verdict = (losses * 10 >= pairs * 9 && -gain > iqr) ? "LOSS resolved" : "loss unresolved"
			if (pairs < 10) verdict = "fewer than ten pairs"
			printf "%-18s %-6s %13.6g %13.6g %+7.2f%% %12.4g %3d/%-2d  %s\n", m, better[m], pm, cm, pm ? 100 * (cm - pm) / pm : 0, iqr, wins, pairs, verdict
		}
	}' "$parent/BENCHMARK.json" "$runs"
