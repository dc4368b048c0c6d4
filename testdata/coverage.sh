#!/usr/bin/env bash
# Coverage of the production run set: builds rmbench, rmmon, rmtrace and
# the examples with -cover over every package of the module, runs every
# line of testdata/runs.txt with a coverage dir of its own, and checks
# the functions that no line ran against testdata/unexecuted.txt.
#
#   testdata/coverage.sh OUT
#
# OUT gets cov/<line>/ (one coverage dir per line), out/ (the lines'
# output), func.txt (per-function coverage), unexecuted-funcs.txt and
# unexecuted-blocks.txt (never-run functions and blocks). Fails when a
# line fails, when a never-run function is missing from
# testdata/unexecuted.txt, or when an entry there ran.
set -u
export LC_ALL=C
out=$1
here=$(cd "$(dirname "$0")/.." && pwd)
cd "$here" || exit 1
rm -rf "$out/cov" "$out/out"
mkdir -p "$out/cov" .bench_build/cover
go build -cover -coverpkg=./... -o .bench_build/cover/ ./cmd/... ./examples/... || exit 1
bash testdata/runs.sh all .bench_build/cover "$out/out" "$out/cov"
fail=$?
dirs=$(ls -d "$out"/cov/* | paste -sd,)
go tool covdata func -i="$dirs" >"$out/func.txt" || exit 1
go tool covdata textfmt -i="$dirs" -o "$out/profile.txt" || exit 1
# rdmamon/internal/simos/node.go:382:	unpark	0.0%  ->  internal/simos/node.go unpark
awk '$NF == "0.0%" { sub(/^rdmamon\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' \
	"$out/func.txt" | sort -u >"$out/unexecuted-funcs.txt"
awk 'NR > 1 && $NF == 0 { sub(/^rdmamon\//, ""); print $1 }' "$out/profile.txt" |
	sort -t: -k1,1 -k2n >"$out/unexecuted-blocks.txt"
grep -v '^#' testdata/unexecuted.txt | cut -d' ' -f1,2 | sort -u >"$out/listed.txt"
stmts=$(awk 'NR > 1 { n += $2; if ($3 > 0) r += $2 } END { printf "%.1f%% of %d statements", 100 * r / n, n }' "$out/profile.txt")
echo "coverage-runs: $stmts ran; $(wc -l <"$out/unexecuted-funcs.txt") of $(grep -vc '^total' "$out/func.txt") functions never ran"
missing=$(comm -23 "$out/unexecuted-funcs.txt" "$out/listed.txt")
stale=$(comm -13 "$out/unexecuted-funcs.txt" "$out/listed.txt")
if [ -n "$missing" ]; then
	echo "$missing" | sed 's|^|never ran, not in testdata/unexecuted.txt: |' >&2
	fail=1
fi
if [ -n "$stale" ]; then
	echo "$stale" | sed 's|^|ran, still in testdata/unexecuted.txt: |' >&2
	fail=1
fi
exit $fail
