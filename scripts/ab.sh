#!/usr/bin/env bash
# ab.sh — interleaved A/B runs of the repository benchmark (perfbench)
# between a base git ref and the current working tree.
#
# Usage (from anywhere inside the repository):
#   scripts/ab.sh <base-ref> [workload...]
#
# Workloads default to "corpus field". The base ref is checked out into a
# temporary git worktree, which is removed when the script exits. For
# every workload the script runs AB_PAIRS pairs (default 10) of
#   bash perfbench/run.sh --workload W --seed AB_SEED --seconds AB_SECONDS --trace AB_TRACE
# (defaults: seed 1, 30 s, trace 0), once in the base worktree and once in
# the working tree, alternating which side runs first so that a drift in
# machine speed does not favour either side. Each side builds perfbench
# from its own checkout under its own .bench_build/.
#
# It prints, per workload and metric, the median [first–third quartile]
# of each side, the median of the per-pair ratios change/base, and the
# per-pair ratios themselves; then whether every run reported
# "correct": true and whether the two sides' plan digests agree. The raw
# output of every run is kept under AB_OUT when that is set.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 <base-ref> [workload...]" >&2
	exit 2
fi
base_ref=$1
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(corpus field)
fi
pairs=${AB_PAIRS:-10}
seconds=${AB_SECONDS:-30}
seed=${AB_SEED:-1}
trace=${AB_TRACE:-0}

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
tmp=$(mktemp -d)
wt="$tmp/base"
out=${AB_OUT:-$tmp/runs}
mkdir -p "$out"

cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
	git -C "$root" worktree prune >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach --quiet "$wt" "$base_sha"
echo "base   $base_ref ($base_sha) in $wt"
echo "change working tree of $root"
echo "$pairs pairs per workload, ${seconds}s runs, seed $seed, trace $trace"

# run_side <dir> <workload> <file>: one perfbench run in a checkout; the
# provenance and result lines (the last two of standard output) go to
# <file>.
run_side() {
	(cd "$1" && bash perfbench/run.sh --workload "$2" --seed "$seed" \
		--seconds "$seconds" --trace "$trace") | tail -n 2 >"$3"
}

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			order="base change"
		else
			order="change base"
		fi
		for side in $order; do
			dir=$root
			[ "$side" = base ] && dir=$wt
			run_side "$dir" "$w" "$out/$w.$side.$i.json"
		done
		echo "$w pair $i/$pairs done ($order)"
	done
done

# summarize <workload>: median [IQR] per metric for each side and the
# per-pair ratios, from the result lines of one workload's runs.
summarize() {
	w=$1
	for i in $(seq 1 "$pairs"); do
		for side in base change; do
			f="$out/$w.$side.$i.json"
			printf '%s %s ' "$side" "$i"
			tail -n 1 "$f"
			printf '%s %s DIGEST ' "$side" "$i"
			head -n 1 "$f" | sed -n 's/.*"digests":\({[^}]*}\).*/\1/p'
		done
	done | awk -v workload="$w" '
		function sortv(a, n,   i, j, t) {
			for (i = 2; i <= n; i++) {
				t = a[i]
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
				a[j + 1] = t
			}
		}
		# q returns the p-quantile of the sorted a[1..n], interpolated.
		function q(a, n, p,   h, lo) {
			h = (n - 1) * p + 1
			lo = int(h)
			if (lo >= n) return a[n]
			return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		function stats(side, m,   a, n, i) {
			n = 0
			for (i = 1; i <= npairs; i++)
				if ((side, m, i) in val) a[++n] = val[side, m, i]
			if (n == 0) return "-"
			sortv(a, n)
			return sprintf("%.6g [%.6g–%.6g]", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75))
		}
		$3 == "DIGEST" {
			dig[$1, $2] = $4
			next
		}
		{
			side = $1; i = $2 + 0
			if (i > npairs) npairs = i
			line = $0
			if (line !~ /"correct":true/) bad[side]++
			rest = line
			sub(/^.*"metrics":\{/, "", rest)
			while (match(rest, /"[^"]+":\{"value":[-0-9.eE+]+/)) {
				kv = substr(rest, RSTART, RLENGTH)
				rest = substr(rest, RSTART + RLENGTH)
				name = kv
				sub(/^"/, "", name)
				sub(/".*$/, "", name)
				v = kv
				sub(/^.*"value":/, "", v)
				if (!(name in seen)) { seen[name] = 1; names[++nm] = name }
				val[side, name, i] = v + 0
			}
		}
		END {
			printf "\n== %s: base vs change, %d pairs ==\n", workload, npairs
			printf "%-16s %-34s %-34s %s\n", "metric", "base median [IQR]", "change median [IQR]", "change/base per pair (median)"
			for (k = 1; k <= nm; k++) {
				m = names[k]
				n = 0
				ratios = ""
				for (i = 1; i <= npairs; i++) {
					if (!((("base", m, i) in val) && (("change", m, i) in val))) continue
					b = val["base", m, i]; c = val["change", m, i]
					r = (b == 0) ? (c == 0 ? 1 : "inf") : c / b
					ratios = ratios sprintf(" %.4g", r)
					if (r != "inf") rs[++n] = r
				}
				med = "-"
				if (n > 0) { sortv(rs, n); med = sprintf("%.4g", q(rs, n, 0.5)) }
				printf "%-16s %-34s %-34s (%s)%s\n", m, stats("base", m), stats("change", m), med, ratios
			}
			printf "correct: base %d/%d runs, change %d/%d runs\n", npairs - bad["base"], npairs, npairs - bad["change"], npairs
			same = 1
			for (i = 1; i <= npairs; i++) {
				if (dig["base", i] != dig["base", 1] || dig["change", i] != dig["change", 1]) same = 0
				if (dig["base", i] != dig["change", i]) same = 0
			}
			printf "plan digests: %s\n", same ? "identical on both sides and every run" : "DIFFER (see the runs under AB_OUT)"
		}
	'
}

for w in "${workloads[@]}"; do
	summarize "$w"
done
