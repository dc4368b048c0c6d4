//go:build !race

package core

import (
	"runtime"
	"testing"

	"rdmamon/internal/sim"
)

// TestSweepAllocsPerRead pins the steady-state sweep at the gate
// configuration (256 back-ends, 4 shards, doorbell batch 32): a read's
// fabric stages, completion slot, decode burst and outcome all run on
// state bound once, so what a read still allocates is a 32nd share of
// its batch's task machinery and the amortized growth of the latency
// samples. The two-second warm-up carries those samples past their
// early doublings.
func TestSweepAllocsPerRead(t *testing.T) {
	f := newFleet(1, 256, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{Shards: 4, Batch: 32})
	f.eng.RunUntil(2 * sim.Second)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	reads0 := f.fnic.RDMAReads
	f.eng.RunUntil(3 * sim.Second)
	runtime.ReadMemStats(&m1)
	reads := f.fnic.RDMAReads - reads0
	if reads < 256*50 {
		t.Fatalf("%d reads in a settled second (%d cycles), want >= %d", reads, m.Cycles, 256*50)
	}
	perRead := float64(m1.Mallocs-m0.Mallocs) / float64(reads)
	if perRead > 0.25 {
		t.Fatalf("the settled sweep allocates %.2f objects per read, want <= 0.25", perRead)
	}
	t.Logf("%.2f allocs, %.0f B per read over %d reads", perRead,
		float64(m1.TotalAlloc-m0.TotalAlloc)/float64(reads), reads)
}

// TestDeltaPusherQuietCheckAllocs pins the pusher's loop: a check that
// finds the load below threshold (sample /proc, score, sleep) runs on
// the pusher's four bound stages and the task's owned timers.
func TestDeltaPusherQuietCheckAllocs(t *testing.T) {
	r := newRig(36)
	sink := NewPushSink(r.front, r.fnic, []int{1})
	cfg := HybridConfig{Check: 10 * sim.Millisecond, Heartbeat: 3600 * sim.Second}
	p := StartDeltaPusher(r.backend, r.bnic, 0, func() uint32 { return sink.SlotKey(1) }, cfg)
	r.eng.RunUntil(2 * sim.Second) // primed by its first push; past the utilisation window
	if p.Pushes == 0 || sink.Received != p.Pushes {
		t.Fatalf("pusher never primed: pushes=%d received=%d errors=%d", p.Pushes, sink.Received, p.Errors)
	}
	pushes, skips := p.Pushes, p.Skips
	const runs = 5
	perSecond := testing.AllocsPerRun(runs, func() { r.eng.RunFor(sim.Second) })
	checks := float64(p.Skips-skips) / (runs + 1) // AllocsPerRun adds a warm-up run
	if p.Pushes != pushes || checks < 90 {
		t.Fatalf("want quiet checks only: %d new pushes, %.0f checks per second", p.Pushes-pushes, checks)
	}
	perCheck := perSecond / checks
	t.Logf("%.2f allocs per quiet check", perCheck)
	if perCheck > 1 {
		t.Fatalf("a quiet pusher check allocates %.2f objects, want <= 1", perCheck)
	}
}
