#!/usr/bin/env bash
# Runs the lines of testdata/runs.txt that carry a tag, with programs
# built into one directory (make runs-build, or coverage.sh's -cover
# build).
#
#   testdata/runs.sh TAG BIN [OUT [COVER]]
#
# TAG is ci, paper, quick, live or all. With OUT, each foreground line's
# stdout is kept there with wall lines stripped: a paper line's as
# <last word>.txt, any other's named after its command. With COVER,
# each line runs with GOCOVERDIR=COVER/<that name>. A non-zero exit of
# any line, background lines included, fails the run after every line
# has run; a failed background line's output goes to stderr.
set -u
tag=$1 bin=$2 out=${3:-} cover=${4:-}
here=$(cd "$(dirname "$0")/.." && pwd)
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
fail=0
pids=() names=() bglogs=()

# finish records how a line ended.
finish() {
	if [ "$1" -ne 0 ]; then
		echo "runs.sh: exit $1: $2" >&2
		fail=1
	fi
}

while read -r tags prog args; do
	case "$tags" in '' | '#'*) continue ;; esac
	[ "$tag" = all ] || [[ ",$tags," == *",$tag,"* ]] || continue
	bg=0
	if [ "${args##* }" = '&' ]; then
		bg=1 args=${args% &}
	fi
	line="$prog $args"
	name=$(printf '%s' "$line" | tr -cs 'A-Za-z0-9.' '_')
	name=${name%_}
	[ "$tag" = paper ] && name=${args##* }
	env=()
	if [ -n "$cover" ]; then
		mkdir -p "$cover/$name"
		env=(GOCOVERDIR="$cover/$name")
	fi
	log=$logs/$name
	echo "== $line" >&2
	if [ $bg = 1 ]; then
		(cd "$here" && exec env "${env[@]}" "$bin/${prog##*/}" $args) >"$log" 2>&1 &
		pids+=($!) names+=("$line") bglogs+=("$log")
		for _ in $(seq 100); do
			[ -s "$log" ] && break
			sleep 0.05
		done
		continue
	fi
	(cd "$here" && env "${env[@]}" "$bin/${prog##*/}" $args) >"$log"
	finish $? "$line"
	if [ -n "$out" ]; then
		mkdir -p "$out"
		grep -v ' wall)$' "$log" >"$out/$name.txt"
	else
		cat "$log"
	fi
done <"$here/testdata/runs.txt"

for i in "${!pids[@]}"; do
	kill -INT "${pids[$i]}" 2>/dev/null
	wait "${pids[$i]}" || { finish $? "${names[$i]}"; cat "${bglogs[$i]}" >&2; }
done
exit $fail
