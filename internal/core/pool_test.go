package core

import (
	"testing"

	"rdmamon/internal/connpool"
	"rdmamon/internal/sim"
)

// TestPooledMonitorProbes: with an ample budget the pooled monitor
// dials each back-end once, serves every probe over pooled conns with
// zero errors, and tears down without leaking a conn, QP or fd.
func TestPooledMonitorProbes(t *testing.T) {
	const n = 16
	f := newFleet(51, n, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{
		Shards: 2, Batch: 8,
		Pool: &connpool.Config{MaxConns: 32},
	})
	f.eng.RunUntil(sim.Second)
	if m.Cycles < 50 {
		t.Fatalf("%d cycles in 1s at 10ms poll", m.Cycles)
	}
	s := m.Pool().Stats()
	if s.Dials != n {
		t.Fatalf("dials = %d, want one per back-end (%d)", s.Dials, n)
	}
	if s.Live != n {
		t.Fatalf("live conns = %d, want %d", s.Live, n)
	}
	for _, b := range m.Backends() {
		rec, at, ok := m.Latest(b)
		if !ok || int(rec.NodeID) != b {
			t.Fatalf("backend %d: record missing or misattributed", b)
		}
		if age := f.eng.Now() - at; age > 30*sim.Millisecond {
			t.Fatalf("backend %d record stale by %v", b, age)
		}
		if p := m.Probers[b]; p.Errors != 0 {
			t.Fatalf("backend %d saw %d probe errors", b, p.Errors)
		}
	}
	if m.FenceRejects != 0 || poolSheds(m) != 0 {
		t.Fatalf("fault-free run: fenceRejects=%d sheds=%d, want 0/0", m.FenceRejects, poolSheds(m))
	}

	m.Stop()
	if got := m.Pool().Stats().Live; got != 0 {
		t.Fatalf("conns leaked after Stop: %d", got)
	}
	if f.fnic.QPsOpen() != 0 || f.fnic.FDsInUse() != 0 {
		t.Fatalf("leaked QPs=%d fds=%d after Stop", f.fnic.QPsOpen(), f.fnic.FDsInUse())
	}
}

// TestPooledMonitorEvictsUnderConnPressure: more back-ends than
// MaxConns — the pool recycles idle conns to cover the fleet, the cap
// is never exceeded, and every back-end still gets fresh records.
func TestPooledMonitorEvictsUnderConnPressure(t *testing.T) {
	const n, maxConns = 24, 6
	f := newFleet(52, n, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{
		Pool: &connpool.Config{MaxConns: maxConns},
	})
	f.eng.RunUntil(sim.Second)
	s := m.Pool().Stats()
	if s.MaxLive > maxConns {
		t.Fatalf("pool exceeded MaxConns: high-water %d > %d", s.MaxLive, maxConns)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions with 24 back-ends on 6 conns")
	}
	if f.fnic.FDsInUse() > maxConns {
		t.Fatalf("fds in use %d exceed conn budget %d", f.fnic.FDsInUse(), maxConns)
	}
	for _, b := range m.Backends() {
		if _, at, ok := m.Latest(b); !ok || f.eng.Now()-at > 40*sim.Millisecond {
			t.Fatalf("backend %d starved under conn pressure", b)
		}
		if p := m.Probers[b]; p.Errors != 0 {
			t.Fatalf("backend %d saw %d errors", b, p.Errors)
		}
	}
	m.Stop()
	if f.fnic.FDsInUse() != 0 {
		t.Fatalf("fds leaked after Stop: %d", f.fnic.FDsInUse())
	}
}

// TestPooledMonitorFencesListenerResets: repeated listener resets kill
// pooled QPs under the monitor; every affected read is rejected by the
// epoch fence and replayed — record streams stay fresh and error-free,
// and the pool redials instead of serving ghosts.
func TestPooledMonitorFencesListenerResets(t *testing.T) {
	const n = 8
	f := newFleet(53, n, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{
		Shards: 1, Batch: 4,
		Pool: &connpool.Config{MaxConns: 16},
	})
	fab := f.fnic.Fabric()
	// Bounce a rotating victim's listener every 7ms for a second.
	var i int
	tick := f.eng.NewTicker(7*sim.Millisecond, func() {
		fab.ResetListener(1 + i%n)
		i++
	})
	defer tick.Stop()

	f.eng.RunUntil(sim.Second)
	if m.FenceRejects == 0 {
		t.Fatal("listener resets never exercised the epoch fence")
	}
	s := m.Pool().Stats()
	if s.Dials <= uint64(n) {
		t.Fatalf("dials = %d: resets should force redials beyond the initial %d", s.Dials, n)
	}
	for _, b := range m.Backends() {
		if _, at, ok := m.Latest(b); !ok || f.eng.Now()-at > 40*sim.Millisecond {
			t.Fatalf("backend %d records went stale across resets", b)
		}
		if p := m.Probers[b]; p.Errors != 0 {
			t.Fatalf("backend %d saw %d errors: fence must replay, not fail", b, p.Errors)
		}
	}
	m.Stop()
	if f.fnic.QPsOpen() != 0 || f.fnic.FDsInUse() != 0 {
		t.Fatalf("leaked QPs=%d fds=%d", f.fnic.QPsOpen(), f.fnic.FDsInUse())
	}
}

// TestPooledMonitorShedsQuietFirst: a starved conn budget on a hybrid
// monitor sheds probes, but only for quiet back-ends (PoolShedHot
// stays 0) and every back-end still converges within its relaxed
// adaptive period.
func TestPooledMonitorShedsQuietFirst(t *testing.T) {
	const n = 12
	poll := 10 * sim.Millisecond
	f := newFleet(54, n, AgentConfig{Scheme: RDMASync, Interval: poll})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, poll, MonitorConfig{
		Hybrid: &HybridConfig{},
		Pool:   &connpool.Config{MaxConns: 3},
	})
	f.eng.RunUntil(4 * sim.Second)
	if poolSheds(m) == 0 {
		t.Fatal("12 quiet back-ends on 3 conns never shed")
	}
	if m.PoolShedHot != 0 {
		t.Fatalf("%d hot sheds: budget pressure must land on quiet back-ends", m.PoolShedHot)
	}
	maxAge := 2 * m.cfg.Hybrid.Period.Max
	for _, b := range m.Backends() {
		if _, at, ok := m.Latest(b); !ok || f.eng.Now()-at > maxAge {
			t.Fatalf("backend %d starved: last record %v ago", b, f.eng.Now()-at)
		}
	}
	m.Stop()
}

// poolSheds is the pool's shed total: every slot the monitor shed.
func poolSheds(m *Monitor) (n uint64) {
	for _, v := range m.Pool().Stats().Sheds {
		n += v
	}
	return n
}
