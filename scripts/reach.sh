#!/usr/bin/env bash
# reach.sh — reachability ledger: which functions of the module does no
# shipped entry point ever run?
#
# Every entry point is built with coverage instrumentation for the whole
# module (GOFLAGS="-cover -coverpkg=repro/...") and run once on a small
# input, writing its counters under one GOCOVERDIR:
#
#   the six examples; cmd/experiments -scale quick; coverage-opt (with
#   -analyze), simulate and tradeoff; deploydemo; scripts/conformance.sh
#   (schema validation, confgen -check, the full corpus run) and the
#   corpus run's -json report;
#   fleetsmoke, shardsmoke and loadtest; and the perfbench corpus and
#   field workloads, traced. perfbench is a module of its own: it is
#   built from its directory into a temporary path, so no file under
#   perfbench/ changes.
#
# `go tool covdata func` then lists every function with its statement
# coverage; the script prints the never-run ones (0.0%) grouped by
# package and file, with a count per package and in total, followed by
# the overall statement coverage.
#
# It is informational and always exits 0: an entry point that fails is
# reported (with the tail of its log), and the ledger is still printed
# from whatever counters were written.
#
# Usage (from anywhere inside the repository):
#   scripts/reach.sh
set -uo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d -t reach.XXXXXX)
cleanup() { rm -rf "$work"; }
trap cleanup EXIT
trap 'exit 130' INT TERM

export GOCOVERDIR="$work/cov"
export GOFLAGS="-cover -coverpkg=repro/..."
mkdir -p "$GOCOVERDIR"
# The instrumented binaries are slower, and the latency SLO is not what
# this run measures.
export PLANLOAD_SLO="${PLANLOAD_SLO:-1s}"

failed=()
# step <name> <command...>: run one entry point, logging its output;
# a failure is recorded and reported, never fatal.
step() {
	local name=$1
	shift
	echo "== reach: $name" >&2
	if ! "$@" >"$work/$name.log" 2>&1; then
		failed+=("$name")
		echo "reach: $name FAILED; last lines of its log:" >&2
		tail -n 15 "$work/$name.log" >&2
	fi
}

for ex in examples/*/; do
	ex=${ex%/}
	step "${ex#examples/}" go run "./$ex"
done
step experiments go run ./cmd/experiments -scale quick
step coverage-opt go run ./cmd/coverage-opt -topology 3 -algorithm perturbed \
	-iters 300 -seed 42 -energy-weight 0.5 -energy-target 0.3 \
	-entropy-weight 0.05 -analyze -save "$work/plan.json"
step simulate go run ./cmd/simulate -plan "$work/plan.json" -topology 3 \
	-steps 20000 -reps 3 -seed 9
step tradeoff go run ./cmd/tradeoff -topology 3 -iters 200
step deploydemo go run ./cmd/deploydemo
step conformance ./scripts/conformance.sh
step conformance-json go run ./cmd/conformance -corpus coverage/testdata/corpus -json
step fleetsmoke ./scripts/fleetsmoke.sh
step shardsmoke ./scripts/shardsmoke.sh
step loadtest ./scripts/loadtest.sh

if (cd perfbench && go build -o "$work/perfbench" .) >"$work/perfbench-build.log" 2>&1; then
	step perfbench-corpus "$work/perfbench" --workload corpus --seed 1 --seconds 2 --trace 1
	step perfbench-field "$work/perfbench" --workload field --seed 1 --seconds 2 --trace 1
else
	failed+=(perfbench-build)
	echo "reach: perfbench build FAILED:" >&2
	tail -n 15 "$work/perfbench-build.log" >&2
fi

unset GOFLAGS
if ! go tool covdata func -i="$GOCOVERDIR" >"$work/func.txt" 2>"$work/covdata.log"; then
	echo "reach: go tool covdata func failed:" >&2
	cat "$work/covdata.log" >&2
	exit 0
fi

# covdata func lines read "<import path>/<file>.go:<line>:\t<func>\t<pct>%"
# and end with "total\t(statements)\t<pct>%". Plain POSIX awk and sort, so
# the ledger prints the same under mawk and gawk.
total=$(awk '$1 == "total" { print $NF }' "$work/func.txt")
funcs=$(awk '$1 != "total"' "$work/func.txt" | wc -l)
awk '$1 != "total" && $NF == "0.0%" {
	loc = $1; sub(/:[0-9]+:$/, "", loc)
	file = loc; sub(/.*\//, "", file)
	pkg = loc; sub(/\/[^\/]*$/, "", pkg)
	print pkg "\t" file "\t" $2
}' "$work/func.txt" | sort -t "$(printf '\t')" -k1,1 -k2,2 -k3,3 >"$work/never.txt"

echo "never-run functions by package and file:"
awk -F '\t' '
	function flush() { if (pkg != "") printf "%4d %s\n%s\n", n, pkg, body }
	$1 != pkg { flush(); pkg = $1; n = 0; body = ""; file = "" }
	{
		n++
		if ($2 != file) {
			if (file != "") body = body "\n"
			file = $2
			body = body "       " file ":"
		}
		body = body " " $3
	}
	END { flush() }
' "$work/never.txt"
printf '%4d of %d functions never ran; statements %s\n' "$(wc -l <"$work/never.txt")" "$funcs" "$total"
[ ${#failed[@]} -eq 0 ] || echo "entry points that failed: ${failed[*]}"
