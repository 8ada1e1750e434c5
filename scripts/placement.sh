#!/usr/bin/env bash
# placement.sh — how much of a dense-kernel benchmark row is code
# placement: the same source, built several times with only the linker's
# placement of the kernels changed, run interleaved.
#
# Usage (from anywhere inside the repository):
#   scripts/placement.sh [ref]
#
# The ref (default HEAD) is exported with git archive into a temporary
# directory, which is removed when the script exits; the checkout is
# never touched. For each of six builds the copy
# gets a padding function of a different size in a file of its own in
# internal/mat, named to sort first, so the package's functions (every
# dense kernel) move by the padding's size. Each build's root and
# internal/mat test binaries are built once. Then five rounds run every
# build once, in turn, on
#   BenchmarkGradient/M64, BenchmarkGradient/M128,
#   BenchmarkProbe/M64/dense/build and BenchmarkKernels (every row)
# with -benchtime 200ms. A row missing at the ref is skipped.
#
# It prints, per build, the offset modulo 64 of LU.Refactor,
# LU.substituteBatch, Hessenberg.Reduce and MulToRows. Then, per row, it
# takes each build's fastest round (other load on the machine only adds
# time, so the fastest round is the least disturbed one) and prints the
# min, median and max of those over builds, the spread (max − min) /
# median, the noise (the median over builds of the gap between a build's
# two fastest rounds, relative to the fastest) and each build's value. A
# spread not wider than a few times the noise shows no placement effect
# the rounds can resolve. Rounds interleave the builds, so a drift in
# machine speed spreads over all of them rather than into one.
set -euo pipefail

ref=${1:-HEAD}
builds=6
rounds=5
benchtime=200ms

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
src="$tmp/src"
mkdir -p "$src"
git -C "$root" archive "$sha" | tar -x -C "$src"
echo "placement probe of $ref ($sha): $builds builds, $rounds rounds, -benchtime $benchtime"

# pad <statements>: a reachable function of about 13 bytes of amd64 code
# per statement, kept out of line and in a file that sorts first, so the
# linker lays it out ahead of every other function of the package and
# each kernel moves by its size rounded up to the 32-byte function
# alignment.
pad() {
	{
		echo 'package mat'
		echo
		echo 'var placementCalls int'
		echo
		echo 'func init() {'
		echo '	if placementCalls > 0 {'
		echo '		placementPad(1)'
		echo '	}'
		echo '}'
		echo
		echo '//go:noinline'
		echo 'func placementPad(x float64) float64 {'
		for ((s = 0; s < $1; s++)); do
			echo "	x = x*1.0000001 + $s"
		done
		echo '	return x'
		echo '}'
	} >"$src/internal/mat/aaa_placement_pad.go"
}

kernels='mat\.\(\*LU\)\.Refactor$|mat\.\(\*LU\)\.substituteBatch$|mat\.\(\*Hessenberg\)\.Reduce$|mat\.MulToRows$'
for ((b = 0; b < builds; b++)); do
	pad $((b * 3))
	mkdir -p "$tmp/bin/$b"
	(cd "$src" && go test -c -o "$tmp/bin/$b/root.test" . && go test -c -o "$tmp/bin/$b/mat.test" ./internal/mat)
	offsets=$(go tool nm "$tmp/bin/$b/root.test" | grep -E " T repro/internal/($kernels)" |
		while read -r addr _ name; do
			printf ' %s@%d' "${name##*.}" $((0x$addr % 64))
		done)
	echo "build $b: pad $((b * 3)) statements; offset mod 64:$offsets"
done

raw="$tmp/raw.txt"
: >"$raw"
for ((r = 1; r <= rounds; r++)); do
	for ((b = 0; b < builds; b++)); do
		for spec in "root.test:^BenchmarkGradient\$/^M(64|128)\$" \
			"root.test:^BenchmarkProbe\$/^M64\$/^dense\$/^build\$" \
			"mat.test:^BenchmarkKernels\$"; do
			bin=${spec%%:*}
			pat=${spec#*:}
			(cd "$src" && "$tmp/bin/$b/$bin" -test.run '^$' -test.bench "$pat" -test.benchtime "$benchtime") |
				awk -v b="$b" '/^Benchmark/ { name = $1; sub(/-[0-9]+$/, "", name); print b, name, $3 }' >>"$raw"
		done
	done
	echo "round $r/$rounds done"
done

awk -v builds="$builds" '
	function sortv(a, n,   i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	{
		if (!($2 in seen)) { seen[$2] = 1; rows[++nr] = $2 }
		k = ++cnt[$1, $2]
		v[$1, $2, k] = $3
	}
	END {
		printf "\n%-34s %10s %10s %10s %7s %7s  %s\n", "row (ns/op, fastest round)", "min", "median", "max", "spread", "noise", "per build"
		for (r = 1; r <= nr; r++) {
			row = rows[r]
			n = nn = 0
			line = ""
			for (b = 0; b < builds; b++) {
				m = 0
				for (k = 1; k <= cnt[b, row]; k++) x[++m] = v[b, row, k]
				if (m == 0) continue
				sortv(x, m)
				per[++n] = x[1]
				line = line sprintf(" %.4g", x[1])
				if (m > 1) gap[++nn] = (x[2] - x[1]) / x[1]
			}
			if (n == 0) continue
			noise = "-"
			if (nn > 0) {
				sortv(gap, nn)
				noise = sprintf("%6.1f%%", 100 * (nn % 2 ? gap[(nn + 1) / 2] : (gap[nn / 2] + gap[nn / 2 + 1]) / 2))
			}
			sortv(per, n)
			md = n % 2 ? per[(n + 1) / 2] : (per[n / 2] + per[n / 2 + 1]) / 2
			printf "%-34s %10.4g %10.4g %10.4g %6.1f%% %7s %s\n", row, per[1], md, per[n], 100 * (per[n] - per[1]) / md, noise, line
		}
	}
' "$raw"
