# Repo-local CI. `make ci` is the gate a change must pass before it
# lands: vet, build, the full suite under the race detector with
# shuffled test order, a short smoke run of every fuzzer, and
# chaos/HA-harness smokes across a few random fault plans.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: ci vet build test race fuzz chaos-smoke ha-smoke aa-smoke hybrid-smoke churn-smoke scenario-smoke bench bench-baseline bench-check bench-wall bench-wall-compare clean

ci: vet build race bench-check fuzz chaos-smoke ha-smoke aa-smoke hybrid-smoke churn-smoke scenario-smoke

vet:
	$(GO) vet ./...

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
	$(GO) test -run=^$$ -fuzz=FuzzProcfsParsers -fuzztime=$(FUZZTIME) ./internal/procfs
	$(GO) test -run=^$$ -fuzz=FuzzLeaseRecord$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzPushRecord$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzHistoryRing$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzClaimRecord$$ -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzScenario$$ -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzEngineOrder$$ -fuzztime=$(FUZZTIME) ./internal/sim

# Randomized failover chaos: three seeded fault plans, invariants
# asserted, non-zero exit on any violation.
chaos-smoke:
	$(GO) run ./cmd/rmbench -exp chaos -quick -seeds 3

# Front-end HA under front-end crash/freeze/partition plans: lease
# safety (no split-brain), epoch fencing and bounded takeover asserted,
# non-zero exit on any violation.
ha-smoke:
	$(GO) run ./cmd/rmbench -exp ha -quick -seeds 3

# Active-active dispatch under a claim-stall fault plan: zero
# double-dispatch, bounded orphan reclamation, >= 2x single-primary
# throughput and per-front-end fairness asserted, non-zero exit on
# any violation.
aa-smoke:
	$(GO) run ./cmd/rmbench -exp aa -quick -seeds 1

# Hybrid push/pull contract: >= 10x fewer probe WRs than all-pull at
# the same effective-staleness bound, non-zero exit on any violation.
hybrid-smoke:
	$(GO) run ./cmd/rmbench -exp hybrid -quick

# Connection-lifecycle smoke: the pooled scale-out at 1024 back-ends
# (quick phases) through crash/restart churn, a dial storm and an fd
# clamp — asserts zero stale-epoch reads, epoch-fence replay, dial
# rate within budget and leak-free teardown, non-zero exit on any
# violation.
churn-smoke:
	$(GO) run ./cmd/rmbench -exp scale -backends 1024 -quick

# Declarative scenario DSL smoke: the quickest curated scenario end to
# end through rmbench (non-zero exit if its assertions fail) plus the
# chaos-equivalence golden tests pinning that scenario-compiled plans
# stay bit-identical to the legacy Go-coded chaos/ha experiments.
scenario-smoke:
	$(GO) run ./cmd/rmbench -scenario examples/scenarios/quickstart.yaml
	$(GO) test -run 'TestChaosScenarioPlanEquivalence|TestHAScenarioPlanEquivalence|TestScenarioGoldenDigests' -count=1 ./internal/scenario

# One-command reproduction pass over the paper's tables and figures.
# -benchmem surfaces allocs/op and B/op next to the sim-derived
# metrics (the steady-sweep figures are also reported explicitly).
# The second line times the dispatch decision next to its code: one
# Pick against fleet size (ns/op should grow linearly) and one
# LocalFrac query. The third times the event path next to its code:
# the engine under random delays (EngineHold), under a fleet's
# tie-heavy tick bursts (EngineTickBurst/n=8192 — the pattern
# sweep-8192 has, which the hold model does not resolve — and
# /staggered, the same fleet with no ties) and cancelling a run of
# same-instant deadlines in random order (EngineCancelChained), a
# task's deadline pattern on one owned timer (TimerReset), an idle
# node's timer ticks, one read of a 32-read doorbell batch, and one
# read of the settled 256-back-end sweep (SweepBatch256; ns and allocs
# per read).
# The fourth times the live transport next to its framing: loopback
# round trips of each verb and a 32-read doorbell (ns/read),
# allocations counted across both ends.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem
	$(GO) test -run '^$$' -bench 'BenchmarkPick|BenchmarkLocalFrac' -benchmem ./internal/loadbalance ./internal/httpsim
	$(GO) test -run '^$$' -bench 'BenchmarkEngineHold|BenchmarkEngineTickBurst|BenchmarkEngineCancelChained|BenchmarkTimerReset|BenchmarkIdleNodeSecond|BenchmarkSimReadBatch32|BenchmarkSweepBatch256' -benchmem ./internal/sim ./internal/simos ./internal/simnet ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkLoopback' -benchmem ./internal/tcpverbs

# Probe-engine regression gates: replay the deterministic 256-backend
# scale point and the 512-backend hybrid comparison, failing on >15%
# regression vs the committed baselines (sim figures AND steady-state
# sweep allocs/op + B/op; the probe data path is asserted to allocate
# exactly zero).
bench-check:
	$(GO) test -run 'TestBenchScaleRegression|TestBenchHybridRegression' .

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

clean:
	$(GO) clean -testcache
