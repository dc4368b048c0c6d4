# Repo-local CI. `make ci` is the gate a change must pass before it
# lands: vet (which also fails on any file gofmt would change), build,
# the full suite under the race detector with shuffled test order, a
# short smoke run of every fuzzer, and the quick runs of the production
# run set checked against their committed outputs (make smoke).

GO      ?= go
FUZZTIME ?= 10s

.PHONY: ci vet build test race fuzz runs-build smoke quick-runs coverage-runs bench bench-baseline bench-check bench-wall bench-wall-compare paper-full loc clean

ci: vet build race bench-check fuzz smoke

# The last line runs api_test.go's three rules: it fails on exported API no
# production code uses, on an exported field production reads but only
# tests set (its allowlist excepted), and on a field production writes
# that nothing reads or that only tests read and testReadState omits.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -count=1 -run TestNoTestOnlyAPI .

build:
	$(GO) build ./...

# Fast pass: no race detector, slow experiments skipped.
test:
	$(GO) test -short ./...

# The real gate: race detector on, test order shuffled so hidden
# inter-test ordering dependencies surface instead of calcifying.
# Includes the livemon goroutine/fd leak checks and the pool
# connection-churn test, so leaks and teardown races fail here.
race:
	$(GO) test -race -shuffle=on ./...

# Smoke-run each fuzzer for $(FUZZTIME). Native Go fuzzing allows one
# -fuzz target per invocation, hence one line per fuzzer.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzLoadRecord$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzLoadRecordFields -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/tcpverbs
	$(GO) test -run=^$$ -fuzz=FuzzServeFrame -fuzztime=$(FUZZTIME) ./internal/tcpverbs
	$(GO) test -run=^$$ -fuzz=FuzzServeStream -fuzztime=$(FUZZTIME) ./internal/tcpverbs
	$(GO) test -run=^$$ -fuzz=FuzzReadBatch -fuzztime=$(FUZZTIME) ./internal/tcpverbs
	$(GO) test -run=^$$ -fuzz=FuzzPostedWrites -fuzztime=$(FUZZTIME) ./internal/tcpverbs
	$(GO) test -run=^$$ -fuzz=FuzzProcfsParsers -fuzztime=$(FUZZTIME) ./internal/procfs
	$(GO) test -run=^$$ -fuzz=FuzzPushRecord$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzHistoryRing$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzClaimWord$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzScenario$$ -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzEngineOrder$$ -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzParkedTwin$$ -fuzztime=$(FUZZTIME) ./internal/simos

# Every production run is one line of testdata/runs.txt, tagged by who
# runs it; testdata/runs.sh runs the lines with one tag. runs-build
# builds the programs those lines name.
runs-build:
	$(GO) build -o .bench_build/runs/ ./cmd/... ./examples/...

# The smokes: every `quick` line of testdata/runs.txt (what the
# harness lines assert is commented beside them), non-zero exit on any
# violation or on any output that differs from its committed file,
# plus the golden tests pinning that scenario-compiled plans stay
# bit-identical to the Go-coded chaos/ha/aa experiments.
smoke: quick-runs
	$(GO) test -run 'TestChaosScenarioPlanEquivalence|TestHAScenarioPlanEquivalence|TestAAScenarioPlanEquivalence|TestScenarioGoldenDigests' -count=1 ./internal/scenario

# The output of every deterministic (`quick`) run, one file per line
# with the wall-time lines stripped (~10 s), diffed against the
# committed testdata/golden/quick; a non-zero exit of any line fails it
# too. make quick-runs OUT=testdata/golden/quick rewrites the committed
# files instead, so a change that moves a number shows it in git diff.
quick-runs: runs-build
	$(call runs-check,quick)

# runs-check runs the lines tagged $(1) into $(OUT) when it is set, and
# otherwise into a temp dir that it diffs against testdata/golden/$(1).
runs-check = @if [ -n "$(OUT)" ]; then bash testdata/runs.sh $(1) .bench_build/runs $(OUT); else \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	bash testdata/runs.sh $(1) .bench_build/runs "$$tmp"; rc=$$?; \
	diff -r testdata/golden/$(1) "$$tmp" && exit $$rc; fi

# Coverage of the whole run set (~13 min on 2 cores; not part of ci):
# make coverage-runs OUT=dir builds every program with -cover over the
# module, runs every line of testdata/runs.txt with its own coverage
# dir, writes the functions and blocks no line ran, and fails on a
# never-run function missing from testdata/unexecuted.txt or on an
# entry there that ran.
coverage-runs:
	@if [ -z "$(OUT)" ]; then echo "usage: make coverage-runs OUT=dir"; exit 1; fi
	bash testdata/coverage.sh $(OUT)

# One-command reproduction pass over the paper's tables and figures.
# -benchmem surfaces allocs/op and B/op next to the sim-derived
# metrics (the steady-sweep figures are also reported explicitly).
# The second line times the dispatch decision next to its code: one
# Pick against fleet size (ns/op should grow linearly), one LocalFrac
# query, and one whole served request of the settled 64-back-end
# RUBiS cluster (DispatchRequest; ns and allocs per request). The third times the event path next to its code:
# the engine under random delays (EngineHold), under a fleet's
# tie-heavy tick bursts (EngineTickBurst/n=8192 — the pattern
# sweep-8192 has, which the hold model does not resolve — and
# /staggered, the same fleet with no ties) and cancelling a run of
# same-instant deadlines in random order (EngineCancelChained), a
# task's deadline pattern on one owned timer (TimerReset), an idle
# node's timer ticks, one read of a 32-read doorbell batch, one listener
# reset against fabric size (ResetListener/nics=64 and /nics=8192 must
# read flat: a reset visits the node's inbound QPs, not the fabric), one
# read of the settled 256-back-end sweep (SweepBatch256; ns and allocs
# per read) and one quiet delta-pusher check (PusherCheck; ns and
# allocs per check).
# The fourth times the live transport next to its framing: loopback
# round trips of each verb (a write with the Sync that lands it), a
# 32-read doorbell (ns/read) and four posted writes riding one CAS's
# doorbell (Write4CAS, live-mixed's tail), allocations counted across
# both ends.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem
	$(GO) test -run '^$$' -bench 'BenchmarkPick|BenchmarkLocalFrac|BenchmarkDispatchRequest' -benchmem ./internal/loadbalance ./internal/httpsim ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkEngineHold|BenchmarkEngineTickBurst|BenchmarkEngineCancelChained|BenchmarkTimerReset|BenchmarkIdleNodeSecond|BenchmarkTickingNodeSecond|BenchmarkSimReadBatch32|BenchmarkResetListener|BenchmarkSweepBatch256|BenchmarkPusherCheck' -benchmem ./internal/sim ./internal/simos ./internal/simnet ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkLoopback' -benchmem ./internal/tcpverbs

# Probe-engine regression gates: replay the deterministic 256-backend
# scale point, the pooled 1024-backend scale-out and the 512-backend
# hybrid comparison, failing when any simulated figure differs from the
# committed baselines at all, or the steady-state sweep allocs/op or
# B/op regress by >15% (the probe data path is asserted to allocate
# exactly zero). The second line holds the request path: every routing
# decision of the weighted policies against its golden digest, at most 3
# allocations per served request (a !race pin, so the race pass skips
# it), and least-load reading each landed record once, not once per pick
# (TestPickScoresOncePerRecord). The third holds the pooled scale-out's
# per-back-end work at zero allocations (also !race pins): a quiet
# delta-pusher check, a steady-state one-sided write (a push) and a
# pooled probe whose conn is resident, beside the sweep's per-read pin,
# and the live path's warm loopback fetch at <= 1 allocation across both
# ends, point and ring (TestProbeFetchAllocs, also !race). The second
# line also holds memory: live heap per back-end within its DESIGN §13
# budget in the sweep, pooled, hybrid and ring configurations and per
# layer of the sweep, and no growth over run length (!race pins too).
bench-check:
	$(GO) test -run 'TestBenchScaleRegression|TestBenchHybridRegression' .
	$(GO) test -count=1 -run 'TestDispatchDecisionGoldenDigests|TestDispatchAllocsPerRequest|TestPickScoresOncePerRecord|TestMemoryPerBackend|TestMemoryPerLayer|TestMemoryFlatOverRunLength' ./internal/cluster
	$(GO) test -count=1 -run 'TestDeltaPusherQuietCheckAllocs|TestPooledProbeConnZeroAlloc|TestSweepAllocsPerRead|TestWriteZeroAlloc|TestProbeFetchAllocs' ./internal/core ./internal/simnet ./internal/livemon

# Regenerate BENCH_scale.json / BENCH_hybrid.json after an intentional
# cost-model change (commit the result).
bench-baseline:
	BENCH_WRITE=1 $(GO) test -run 'TestBenchScaleRegression|TestBenchHybridRegression' .

# The wall-clock benchmark BENCHMARK.json declares (bench/README.md):
# all five workloads, untraced then traced, into one result file
# (~2 min). One workload: `go run ./bench -workload dispatch-64`, with
# `-trace 1` for the per-layer breakdown.
bench-wall:
	mkdir -p .bench_build
	$(GO) run ./bench -out .bench_build/wall.json

# Compare two bench-wall result files, e.g. the parent commit's and
# this tree's: make bench-wall-compare A=old.json B=new.json
bench-wall-compare:
	$(GO) run ./bench -compare $(A) $(B)

# The full-scale output of every paper artifact (the `paper` lines of
# testdata/runs.txt), one file per id with the wall-time line stripped,
# diffed against the committed record testdata/golden/paper (~150 s on
# a 2-core host; not part of ci). make paper-full
# OUT=testdata/golden/paper rewrites the record.
paper-full: runs-build
	$(call runs-check,paper)

# Non-test Go lines per package, bench/ excluded: the unit ROADMAP's
# size targets are stated in.
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | grep -v ' rdmamon/bench$$' | \
	while read dir pkg; do \
		echo "$$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$pkg"; \
	done | awk '{ printf "%6d  %s\n", $$1, $$2; t += $$1 } END { printf "%6d  total\n", t }'

clean:
	$(GO) clean -testcache
