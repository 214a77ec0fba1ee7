#!/usr/bin/env bash
# Same-machine A/B of one ladderbench workload: the checkout this script
# sits in (the change) against a git revision (the base), in alternating
# pairs. From the repository root:
#
#   bash scripts/ab.sh <rev> <workload> <pairs> <first-seed>
#   bash scripts/ab.sh HEAD~1 lower-bound 10 41
#
# The base is unpacked with git archive into a temporary directory
# (under $TMPDIR, removed on exit). Pair i runs both sides with seed
# first-seed+i, each from its own tree and its own CARGO_TARGET_DIR, as
#
#   bash <tree>/ladderbench/run.sh --workload W --seed S --seconds 10 --trace 0
#
# and the side that runs first alternates, base first in pair 0. It
# prints one Markdown table row per end-to-end metric of BENCHMARK.json:
# each side's median [Q1, Q3] (quartiles interpolated linearly between
# order statistics), the ratio of the medians (change over base) with a
# 95% percentile-bootstrap interval, the pairs the change won (strictly
# better in the metric's direction), whether the median gap in that
# direction exceeds the base's IQR, and whether the change is within the
# metric's BENCHMARK.json bound: its median no worse than the base's by
# more than bound times the base median. The interval resamples the pair
# indices with replacement 2000 times from a fixed awk seed, so reruns on
# the same values print the same interval. Then it prints every metric's
# per-pair values. It exits non-zero if any run is not correct or reports
# failed requests; the bound verdict does not change the exit status. It
# needs bash, git, jq and awk.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 <rev> <workload> <pairs> <first-seed>" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed0=$4
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
: > "$tmp/base.jsonl"
: > "$tmp/change.jsonl"

bad=0
# run_side SIDE TREE SEED appends the run's result line to SIDE.jsonl.
run_side() {
	local line
	line=$(CARGO_TARGET_DIR="$tmp/build-$1" bash "$2/ladderbench/run.sh" \
		--workload "$workload" --seed "$3" --seconds 10 --trace 0 | tail -n 1)
	echo "$line" >> "$tmp/$1.jsonl"
	echo "$1 seed $3: $(jq -c '{correct, failed, run_rounds_per_s: .metrics.run_rounds_per_s.value}' <<<"$line")" >&2
	if ! jq -e '.correct == true and .failed == 0' <<<"$line" > /dev/null; then
		echo "$1 seed $3: run not correct or with failed requests" >&2
		bad=1
	fi
}
for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run_side base "$tmp/base" "$seed"
		run_side change "$root" "$seed"
	else
		run_side change "$root" "$seed"
		run_side base "$tmp/base" "$seed"
	fi
done

# One line per metric: name, direction, bound, base values, change values.
jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" |
	while read -r name better bound; do
		values() { jq -s -r --arg m "$name" 'map(.metrics[$m].value | tostring) | join(",")' "$tmp/$1.jsonl"; }
		echo "$name $better $bound $(values base) $(values change)"
	done |
	awk -v rev="$rev" -v workload="$workload" -v seed0="$seed0" '
	function num(v,    a) {
		a = v < 0 ? -v : v
		if (a >= 1e6) return sprintf("%.3gM", v / 1e6)
		if (a >= 1e4) return sprintf("%.3gk", v / 1e3)
		if (a >= 100) return sprintf("%.0f", v)
		return sprintf("%.3g", v)
	}
	# quantile of the sorted array s[1..n] at p, interpolated linearly.
	function quantile(s, n, p,    h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
	}
	# hsort sorts a[1..n] in place: a heapsort, since mawk caps recursion.
	function hsort(a, n,    i, t) {
		for (i = int(n / 2); i >= 1; i--) sift(a, i, n)
		for (i = n; i > 1; i--) {
			t = a[1]; a[1] = a[i]; a[i] = t
			sift(a, 1, i - 1)
		}
	}
	function sift(a, i, n,    c, t) {
		while ((c = 2 * i) <= n) {
			if (c < n && a[c + 1] > a[c]) c++
			if (a[i] >= a[c]) return
			t = a[i]; a[i] = a[c]; a[c] = t
			i = c
		}
	}
	function sorted(src, n, dst,    i) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		hsort(dst, n)
	}
	BEGIN {
		srand(20261018)
		resamples = 2000
		printf "%s against %s, seeds %d onward\n\n", workload, rev, seed0
		print "| metric | base | change | ratio [95% CI] | change won | gap > base IQR | within bound |"
		print "|---|---|---|---|---|---|---|"
	}
	{
		name[NR] = $1
		n = split($4, b, ",")
		split($5, c, ",")
		sorted(b, n, bs)
		sorted(c, n, cs)
		bm = quantile(bs, n, 0.5); cm = quantile(cs, n, 0.5)
		bq1 = quantile(bs, n, 0.25); bq3 = quantile(bs, n, 0.75)
		sign = $2 == "lower" ? -1 : 1
		wins = 0
		for (i = 1; i <= n; i++) if (sign * (c[i] - b[i]) > 0) wins++
		gap = sign * (cm - bm)
		exceeds = gap > bq3 - bq1 ? "yes" : "no"
		within = -gap <= $3 * (bm < 0 ? -bm : bm) ? "yes" : "no"
		ratio = "n/a"
		if (bm != 0) {
			# Paired percentile bootstrap of the ratio of medians.
			k = 0
			for (r = 1; r <= resamples; r++) {
				for (i = 1; i <= n; i++) {
					j = int(rand() * n) + 1
					rb[i] = b[j]; rc[i] = c[j]
				}
				hsort(rb, n); hsort(rc, n)
				m = quantile(rb, n, 0.5)
				if (m != 0) ratios[++k] = quantile(rc, n, 0.5) / m
			}
			ratio = sprintf("%.2f×", cm / bm)
			if (k > 0) {
				hsort(ratios, k)
				ratio = ratio sprintf(" [%.2f, %.2f]", quantile(ratios, k, 0.025), quantile(ratios, k, 0.975))
			}
		}
		printf "| %s | %s [%s, %s] | %s [%s, %s] | %s | %d/%d | %s (%s vs %s) | %s |\n",
			$1, num(bm), num(bq1), num(bq3), num(cm), num(quantile(cs, n, 0.25)), num(quantile(cs, n, 0.75)),
			ratio, wins, n, exceeds, num(gap), num(bq3 - bq1), within
		pairs[NR] = num(b[1]) "→" num(c[1])
		for (i = 2; i <= n; i++) pairs[NR] = pairs[NR] ", " num(b[i]) "→" num(c[i])
	}
	END {
		print "\nPer pair (base→change):"
		for (i = 1; i <= NR; i++) printf "- %s: %s\n", name[i], pairs[i]
	}'
exit "$bad"
