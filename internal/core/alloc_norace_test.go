//go:build !race

package core

import (
	"runtime"
	"strings"
	"testing"

	"rdmamon/internal/connpool"
	"rdmamon/internal/sim"
)

// TestSweepAllocsPerRead pins the steady-state sweep at the gate
// configuration (256 back-ends, 4 shards, doorbell batch 32) and at the
// sequential monitor (64 back-ends, MonitorConfig{}): a read's fabric
// stages, completion slot, decode burst and outcome all run on state
// bound once, so what a read still allocates is a share of its batch's
// or its probe's task machinery and the amortized growth of the
// cycle-time sample — no closure per probe, and no latency sample
// unless a caller installs one. The two-second warm-up carries the
// cycle-time sample past its early doublings.
func TestSweepAllocsPerRead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		backends int
		cfg      MonitorConfig
	}{
		{"shards=4/batch=32", 256, MonitorConfig{Shards: 4, Batch: 32}},
		{"sequential", 64, MonitorConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(1, tc.backends, AgentConfig{Scheme: RDMASync})
			m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, tc.cfg)
			f.eng.RunUntil(2 * sim.Second)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			reads0 := f.fnic.RDMAReads
			f.eng.RunUntil(3 * sim.Second)
			runtime.ReadMemStats(&m1)
			reads := f.fnic.RDMAReads - reads0
			if want := uint64(tc.backends * 50); reads < want {
				t.Fatalf("%d reads in a settled second (%d cycles), want >= %d", reads, m.Cycles, want)
			}
			perRead := float64(m1.Mallocs-m0.Mallocs) / float64(reads)
			bytesPerRead := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reads)
			t.Logf("%.2f allocs, %.0f B per read over %d reads", perRead, bytesPerRead, reads)
			if perRead > 0.25 {
				t.Fatalf("the settled sweep allocates %.2f objects per read, want <= 0.25", perRead)
			}
			if bytesPerRead > 16 {
				t.Fatalf("the settled sweep allocates %.0f B per read, want <= 16", bytesPerRead)
			}
		})
	}
}

// TestDeltaPusherQuietCheckAllocs pins the pusher's loop: a check that
// finds the load below threshold (sample /proc into a stack snapshot,
// build the record in place, score it against the cached index, sleep)
// runs on the pusher's four bound stages and the task's owned timers,
// and allocates nothing.
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
	if perCheck := perSecond / checks; perCheck != 0 {
		t.Fatalf("a quiet pusher check allocates %.2f objects, want 0", perCheck)
	}
}

// profileSnapshot copies the memory profile, published up to now, into
// buf.
func profileSnapshot(t *testing.T, buf []runtime.MemProfileRecord) []runtime.MemProfileRecord {
	runtime.GC()
	n, ok := runtime.MemProfile(buf, true)
	if !ok {
		t.Fatalf("memory profile holds %d records, buffer %d", n, len(buf))
	}
	return buf[:n]
}

// moduleAllocs sums the objects recs record from stacks that pass
// through this module's code. Between two snapshots taken with
// runtime.MemProfileRate at 1, that is what the simulator allocated,
// and not what the runtime did for itself: the thread it may start as
// the world restarts after a stop-the-world (an m, two g's and a
// profiling stack, no frame of ours on the stack), which a process-wide
// MemStats count charges to whatever window it lands in.
func moduleAllocs(recs []runtime.MemProfileRecord) (n int64) {
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "rdmamon/") {
				n += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return n
}

// TestPooledProbeConnZeroAlloc pins the pooled sweep's common probe:
// the back-end's conn is resident, so Acquire answers Conn, and the
// fenced read, the release, the outcome and the sweep's step past the
// probe all run on the shard's bound continuations — nothing is
// allocated. The window is sized so the cycle-time sample does not
// grow its array inside it, and the count is the simulator's
// own (moduleAllocs), so a thread the runtime starts meanwhile is not
// charged to the probes.
func TestPooledProbeConnZeroAlloc(t *testing.T) {
	const poll = 10 * sim.Millisecond
	f := newFleet(52, 2, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, poll, MonitorConfig{
		Pool: &connpool.Config{MaxConns: 4},
	})
	room := func() int { return cap(m.CycleTime.Values()) - m.CycleTime.Count() }
	f.eng.RunUntil(sim.Second)
	for room() < 40 {
		f.eng.RunFor(poll)
	}
	sweeps := room() - 2
	dials := m.Pool().Stats().Dials
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, n+1024)
	after := make([]runtime.MemProfileRecord, n+1024)
	before = profileSnapshot(t, before)
	reads0 := f.fnic.RDMAReads
	f.eng.RunFor(sim.Time(sweeps) * poll)
	after = profileSnapshot(t, after)
	probes := f.fnic.RDMAReads - reads0
	if probes < uint64(sweeps) || m.Pool().Stats().Dials != dials || m.FenceRejects != 0 || poolSheds(m) != 0 {
		t.Fatalf("want Conn verdicts only: %d probes in %d sweeps, %d new dials, %d fence rejects, %d sheds",
			probes, sweeps, m.Pool().Stats().Dials-dials, m.FenceRejects, poolSheds(m))
	}
	if n := moduleAllocs(after) - moduleAllocs(before); n != 0 {
		t.Fatalf("%d pooled probes allocated %d objects, want 0", probes, n)
	}
}
