#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source
# inside the checkout, then run it with the arguments given.
#
#   bash bench/run.sh --workload live-probe --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, compile cache, scratch files)
# goes under .bench_build in the checkout, so a run reads and writes
# nothing outside it. The first call compiles; later calls find the
# cache warm and only relink if a source file changed.
set -euo pipefail
cd "$(dirname "$0")/.."
test -f go.mod || { echo "bench/run.sh: no go.mod beside bench/: not a checkout of rdmamon" >&2; exit 2; }
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user's
# configuration directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
