// Benchmark and regression gate for the batched/sharded probe engine
// (DESIGN.md §10). `make bench-check` replays the gate configuration
// and fails when a simulated figure differs from the committed
// BENCH_scale.json at all, or an allocation figure regresses by >15%;
// `make bench-baseline` regenerates that file after an intentional
// cost-model change.
package rdmamon_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/experiments"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

const benchBaselineFile = "BENCH_scale.json"

type scaleBaseline struct {
	Backends   int     `json:"backends"`
	Shards     int     `json:"shards"`
	Batch      int     `json:"batch"`
	CycleP50Us float64 `json:"cycle_p50_us"`
	ProbeP99Us float64 `json:"probe_p99_us"`
	Speedup    float64 `json:"speedup_vs_sequential"`

	// Steady-state sweep cost per posted one-sided read, measured over
	// a one-second window of the warmed gate fleet. The figure includes
	// the discrete-event simulator's own scheduling (closures, event
	// nodes) and moves with the Go runtime, so it alone is gated at
	// tolerance; the probe DATA path — buffers, decode, trend fold — is
	// separately asserted to be allocation-free (see
	// benchProbeHotPathAllocs).
	SweepAllocsPerOp float64 `json:"sweep_allocs_per_op"`
	SweepBytesPerOp  float64 `json:"sweep_b_per_op"`
}

// pooledBaseline pins the pooled scale-out at 1024 back-ends: how much
// dialing, shedding and hot staleness the connection-lifecycle layer
// costs to hold a fleet on a conns/dial-rate budget. The run is
// deterministic, so the gate compares every field exactly.
type pooledBaseline struct {
	Backends     int     `json:"backends"`
	MaxConns     int     `json:"max_conns"`
	DialsPerSec  int     `json:"dials_per_sec"`
	DialsTotal   uint64  `json:"dials_total"`
	ShedTotal    uint64  `json:"shed_total"`
	HotStaleMaxT float64 `json:"hot_stale_max_t"`
}

// benchBaselines is the committed BENCH_scale.json shape: the sweep
// gate point plus the pooled 1024-back-end point.
type benchBaselines struct {
	Gate   scaleBaseline  `json:"gate"`
	Pooled pooledBaseline `json:"pooled_1024"`
}

// benchScalePoint runs the gate configuration — 256 back-ends, 4
// shards, doorbell batch 32 — plus its sequential baseline (for the
// speedup figure). The simulation is deterministic, so the figures are
// exactly reproducible and the gate compares them exactly.
func benchScalePoint() scaleBaseline {
	d := experiments.Scale(experiments.Options{Backends: 256, Shards: 4, Batch: 32})
	p := d.Points[len(d.Points)-1]
	return scaleBaseline{
		Backends: p.Backends, Shards: p.Shards, Batch: p.Batch,
		CycleP50Us: p.CycleP50Us, ProbeP99Us: p.ProbeP99Us, Speedup: p.Speedup,
	}
}

// benchScalePooled runs the pooled scale-out at 1024 back-ends with
// default budgets (conns = fleet/8, dials/s = fleet) and folds the run
// into the baseline scalars.
func benchScalePooled() (pooledBaseline, *experiments.ScaleOutData) {
	d := experiments.Scale(experiments.Options{Backends: 1024})
	out := d.Out
	p := pooledBaseline{
		Backends: out.Backends, MaxConns: out.MaxConns, DialsPerSec: out.DialsPerSec,
	}
	for _, ph := range out.Phases {
		p.DialsTotal += ph.Dials
		p.ShedTotal += ph.Sheds
		if ph.HotAgeMaxT > p.HotStaleMaxT {
			p.HotStaleMaxT = ph.HotAgeMaxT
		}
	}
	return p, out
}

// benchSweepAllocs measures the warmed gate fleet's steady-state
// allocation rate: mallocs and bytes per posted one-sided read over a
// one-second window. The sim engine runs entirely on this goroutine,
// so the MemStats delta is the sweep's own footprint. The two-second
// warmup carries the per-prober metric slices past the window's
// growth boundaries, leaving only amortized tails in the figure.
func benchSweepAllocs() (allocsPerOp, bytesPerOp float64) {
	c := cluster.New(cluster.Config{
		Backends: 256, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, NoServers: true, MonitorShards: 4, MonitorBatch: 32,
	})
	c.Eng.RunUntil(2 * sim.Second)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	reads0 := c.FNIC.RDMAReads
	c.Eng.RunUntil(3 * sim.Second)
	runtime.ReadMemStats(&m1)
	ops := c.FNIC.RDMAReads - reads0
	if ops == 0 {
		return 0, 0
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
}

// benchProbeHotPathAllocs measures the per-probe data path exactly as
// the steady sweep executes it — posted-buffer ring decode into the
// prober-owned view plus the trend fold — with the simulator's event
// plumbing factored out. The acceptance bar is exactly zero.
func benchProbeHotPathAllocs() float64 {
	ring := wire.NewHistoryRing(8, 1)
	for i := 0; i < 12; i++ {
		rec := wire.LoadRecord{NodeID: 1, Seq: uint32(i + 1), KTimeNS: int64(i+1) * 5e6, NrRunning: uint16(i)}
		ring.Push(&rec)
	}
	buf := make([]byte, ring.Size())
	copy(buf, ring.Bytes())
	point := make([]byte, wire.RecordSize)
	rec := wire.LoadRecord{NodeID: 1, Seq: 99, KTimeNS: 1e9}
	copy(point, rec.Encode())
	var view wire.RingView
	var tr core.TrendTracker
	var out wire.LoadRecord
	return testing.AllocsPerRun(200, func() {
		if err := wire.DecodeRingInto(&view, buf); err != nil {
			panic(err)
		}
		tr.ObserveRing(&view)
		if err := wire.DecodeInto(&out, point); err != nil {
			panic(err)
		}
	})
}

// BenchmarkScale256 reports the probe engine's headline figures at the
// gate configuration: sweep time and p99 probe latency at 256
// back-ends, and the speedup over the sequential monitor.
func BenchmarkScale256(b *testing.B) {
	var p scaleBaseline
	for i := 0; i < b.N; i++ {
		p = benchScalePoint()
		p.SweepAllocsPerOp, p.SweepBytesPerOp = benchSweepAllocs()
	}
	b.ReportMetric(p.CycleP50Us/1000, "sim-cycle-p50-ms")
	b.ReportMetric(p.ProbeP99Us, "sim-probe-p99-us")
	b.ReportMetric(p.Speedup, "speedup-x")
	b.ReportMetric(p.SweepAllocsPerOp, "sweep-allocs/op")
	b.ReportMetric(p.SweepBytesPerOp, "sweep-B/op")
}

// BenchmarkScale1024 reports the pooled transport's figures at 1024
// back-ends on a 128-conn budget: total dials, shed probe slots, and
// the worst hot effective staleness (in probe periods) across the
// churn, dial-storm and fd-clamp phases.
func BenchmarkScale1024(b *testing.B) {
	var p pooledBaseline
	for i := 0; i < b.N; i++ {
		p, _ = benchScalePooled()
	}
	b.ReportMetric(float64(p.DialsTotal), "dials")
	b.ReportMetric(float64(p.ShedTotal), "sheds")
	b.ReportMetric(p.HotStaleMaxT, "hot-stale-max-T")
}

// TestBenchScaleRegression is the bench-check gate. With BENCH_WRITE=1
// it rewrites the baseline instead (the bench-baseline target).
func TestBenchScaleRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow benchmark gate; skipped with -short")
	}
	got := benchScalePoint()
	gotPooled, out := benchScalePooled()
	if out.Failed {
		t.Fatalf("pooled 1024 point reported violations:\n%v", out.Notes)
	}
	if !raceEnabled {
		if hot := benchProbeHotPathAllocs(); hot != 0 {
			t.Errorf("probe hot path (ring decode + trend fold) allocates %.1f/op, want exactly 0", hot)
		}
		got.SweepAllocsPerOp, got.SweepBytesPerOp = benchSweepAllocs()
	}
	if os.Getenv("BENCH_WRITE") == "1" {
		if raceEnabled {
			t.Fatal("bench-baseline must run without -race: the allocs/op fields would record race-runtime noise")
		}
		buf, err := json.MarshalIndent(benchBaselines{Gate: got, Pooled: gotPooled}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline rewritten: gate %+v, pooled %+v", got, gotPooled)
		return
	}
	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatalf("no committed baseline (run `make bench-baseline` and commit it): %v", err)
	}
	var want benchBaselines
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s: %v", benchBaselineFile, err)
	}
	// Every simulated figure, configuration included, must equal its
	// baseline exactly; only the two allocation figures keep a
	// tolerance.
	sim, base := got, want.Gate
	sim.SweepAllocsPerOp, sim.SweepBytesPerOp = 0, 0
	base.SweepAllocsPerOp, base.SweepBytesPerOp = 0, 0
	if sim != base {
		t.Errorf("gate figures moved:\n  got  %+v\n  want %+v", sim, base)
	}
	if gotPooled != want.Pooled {
		t.Errorf("pooled figures moved:\n  got  %+v\n  want %+v", gotPooled, want.Pooled)
	}
	if !raceEnabled {
		const tol = 1.15
		worse := func(name string, got, base float64) {
			if got > base*tol {
				t.Errorf("%s regressed: %.3g vs baseline %.3g (>%.0f%% worse)", name, got, base, (tol-1)*100)
			}
		}
		worse("sweep allocs/op", got.SweepAllocsPerOp, want.Gate.SweepAllocsPerOp)
		worse("sweep B/op", got.SweepBytesPerOp, want.Gate.SweepBytesPerOp)
	}
}
