// Benchmark and regression gate for the hybrid push/pull scheme
// (DESIGN.md §11). `make bench-check` replays the 512-back-end hybrid
// comparison and fails when a simulated figure differs from the
// committed BENCH_hybrid.json at all, or an allocation figure regresses
// by >15%; `make bench-baseline` regenerates that file after an
// intentional cost-model change.
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
)

const benchHybridFile = "BENCH_hybrid.json"

type hybridBaseline struct {
	Backends     int     `json:"backends"`
	ProbeWRs     uint64  `json:"probe_wrs"`
	PushWRs      uint64  `json:"push_wrs"`
	WRRatio      float64 `json:"probe_wr_reduction_x"`
	EffStaleMaxT float64 `json:"eff_stale_max_t"`

	// Steady-state allocation cost per probe-slot check (backends ×
	// window/T — the decayed scheme posts few WRs, so per-WR figures
	// would swing wildly with the decay schedule). Includes the event
	// simulator's own scheduling and moves with the Go runtime, so it
	// alone is gated at tolerance.
	SweepAllocsPerOp float64 `json:"sweep_allocs_per_op"`
	SweepBytesPerOp  float64 `json:"sweep_b_per_op"`
}

// benchHybridAllocs measures the warmed 512-back-end hybrid fleet's
// steady-state allocation rate over a one-second window, normalized
// per probe-slot check.
func benchHybridAllocs() (allocsPerOp, bytesPerOp float64) {
	poll := 10 * sim.Millisecond
	c := cluster.New(cluster.Config{
		Backends: 512, Scheme: core.RDMASync, Poll: poll,
		Seed: 1, NoServers: true, MonitorShards: 4, MonitorBatch: 32,
		Hybrid: &core.HybridConfig{},
	})
	c.Eng.RunUntil(2 * sim.Second)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	window := sim.Second
	c.Eng.RunUntil(2*sim.Second + window)
	runtime.ReadMemStats(&m1)
	ops := float64(512) * float64(window) / float64(poll)
	return float64(m1.Mallocs-m0.Mallocs) / ops,
		float64(m1.TotalAlloc-m0.TotalAlloc) / ops
}

// benchHybridPoint runs the gate configuration: the full 512-back-end
// hybrid-vs-all-pull comparison. The simulation is deterministic, so
// the figures are exactly reproducible and the gate compares them
// exactly.
func benchHybridPoint(t testing.TB) hybridBaseline {
	d := experiments.Hybrid(experiments.Options{})
	if d.Failed {
		t.Fatalf("hybrid run violated its own contract:\n%v", d.Notes)
	}
	hyb := d.Points[1]
	return hybridBaseline{
		Backends: hyb.Backends,
		ProbeWRs: hyb.ProbeWRs, PushWRs: hyb.PushWRs,
		WRRatio: d.WRRatio, EffStaleMaxT: hyb.EffStaleMaxT,
	}
}

// BenchmarkHybrid512 reports the hybrid scheme's headline figures at
// the gate configuration: probe work requests over the measurement
// window, the reduction over all-pull, and the worst effective
// staleness in probe periods.
func BenchmarkHybrid512(b *testing.B) {
	var p hybridBaseline
	for i := 0; i < b.N; i++ {
		p = benchHybridPoint(b)
	}
	p.SweepAllocsPerOp, p.SweepBytesPerOp = benchHybridAllocs()
	b.ReportMetric(float64(p.ProbeWRs), "sim-probe-wrs")
	b.ReportMetric(p.WRRatio, "probe-wr-reduction-x")
	b.ReportMetric(p.EffStaleMaxT, "sim-eff-stale-max-T")
	b.ReportMetric(p.SweepAllocsPerOp, "sweep-allocs/op")
	b.ReportMetric(p.SweepBytesPerOp, "sweep-B/op")
}

// TestBenchHybridRegression is the bench-check gate for the hybrid
// scheme: the WR counts, the reduction and the staleness must equal
// the baseline exactly, and the allocation figures stay within
// tolerance. With BENCH_WRITE=1 it rewrites the baseline instead (the
// bench-baseline target).
func TestBenchHybridRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow benchmark gate; skipped with -short")
	}
	got := benchHybridPoint(t)
	if !raceEnabled {
		got.SweepAllocsPerOp, got.SweepBytesPerOp = benchHybridAllocs()
	}
	if os.Getenv("BENCH_WRITE") == "1" {
		if raceEnabled {
			t.Fatal("bench-baseline must run without -race: the allocs/op fields would record race-runtime noise")
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchHybridFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline rewritten: %+v", got)
		return
	}
	raw, err := os.ReadFile(benchHybridFile)
	if err != nil {
		t.Fatalf("no committed baseline (run `make bench-baseline` and commit it): %v", err)
	}
	var want hybridBaseline
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s: %v", benchHybridFile, err)
	}
	sim, base := got, want
	sim.SweepAllocsPerOp, sim.SweepBytesPerOp = 0, 0
	base.SweepAllocsPerOp, base.SweepBytesPerOp = 0, 0
	if sim != base {
		t.Errorf("hybrid figures moved:\n  got  %+v\n  want %+v", sim, base)
	}
	if !raceEnabled {
		const tol = 1.15
		if got.SweepAllocsPerOp > want.SweepAllocsPerOp*tol {
			t.Errorf("sweep allocs/op regressed: %.3g vs baseline %.3g", got.SweepAllocsPerOp, want.SweepAllocsPerOp)
		}
		if got.SweepBytesPerOp > want.SweepBytesPerOp*tol {
			t.Errorf("sweep B/op regressed: %.3g vs baseline %.3g", got.SweepBytesPerOp, want.SweepBytesPerOp)
		}
	}
}
