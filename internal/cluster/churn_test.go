package cluster

import (
	"testing"

	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// TestPoolSurvivesConnectionChurn is the connection-churn chaos
// scenario: 25% of the back-ends crash and restart every cycle, for
// several cycles, under a pooled monitor whose budget covers the fleet
// (so conns persist between sweeps and every listener reset lands on a
// live pooled QP). After the storm the pool must converge (size within
// budget, no dials in flight, dead targets' conns recycled), every
// opened dial breaker must have re-armed, the epoch fence must have
// been exercised with zero violations (no probe error ever attributed
// to a recycled conn, no stale record served — record streams stay
// monotonically fresh), and teardown must leak nothing.
func TestPoolSurvivesConnectionChurn(t *testing.T) {
	const (
		n        = 32
		maxConns = 40
		cycles   = 4
	)
	poll := 10 * sim.Millisecond
	cycle := 400 * sim.Millisecond
	c := New(Config{
		Backends:      n,
		Scheme:        core.RDMASync,
		Poll:          poll,
		Seed:          77,
		NoServers:     true,
		ProbeTimeout:  poll,
		MonitorShards: 4,
		MonitorBatch:  8,
		Pool: &connpool.Config{
			MaxConns:      maxConns,
			DialsPerSec:   2000,
			IdleAfterNS:   int64(200 * sim.Millisecond),
			BreakAfter:    2,
			ReopenAfterNS: int64(50 * sim.Millisecond),
		},
	})

	// Churn plan: each cycle k crashes a rotating 25% slice of the
	// fleet at k*cycle and restarts it 300ms later. The down window is
	// long enough for BreakAfter consecutive dial timeouts, so every
	// crash also exercises the breaker open -> half-open -> close arc.
	var plan faults.Plan
	plan.Seed = 77
	quarter := n / 4
	for k := 0; k < cycles; k++ {
		at := sim.Time(k+1) * cycle
		for j := 0; j < quarter; j++ {
			node := 1 + (k*quarter+j)%n
			plan.Crashes = append(plan.Crashes, faults.Crash{
				Node: node, At: at, RestartAt: at + 300*sim.Millisecond,
			})
		}
	}
	c.ApplyFaults(plan)

	// Record-stream freshness watchdog: a served stale-epoch read
	// would surface as a record whose kernel timestamp regresses.
	lastK := make(map[int]int64)
	for _, b := range c.BackendIDs() {
		b := b
		c.Monitor.Probers[b].OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			if rec.KTimeNS < lastK[b] {
				t.Errorf("backend %d: kernel time regressed %d -> %d (stale record served)",
					b, lastK[b], rec.KTimeNS)
			}
			lastK[b] = rec.KTimeNS
		}
	}

	// Run the storm plus two quiet cycles to settle.
	c.Run(sim.Time(cycles+1)*cycle + 2*sim.Second)

	m := c.Monitor
	pool := m.Pool()
	s := pool.Stats()

	// The fence was exercised (crashes reset listeners under in-use
	// conns) and no violation was recorded: FenceRejects counts reads
	// that were rejected AND replayed; served stale reads would have
	// tripped the watchdog above.
	if m.FenceRejects == 0 {
		t.Fatal("churn never exercised the epoch fence")
	}

	// Pool size converged: within budget, nothing mid-dial, dials
	// stopped growing once the fleet settled.
	if s.Live > maxConns || s.MaxLive > maxConns {
		t.Fatalf("pool exceeded budget: live=%d high-water=%d > %d", s.Live, s.MaxLive, maxConns)
	}
	if s.Dialing != 0 {
		t.Fatalf("%d dials still in flight after settling", s.Dialing)
	}
	dialsBefore := s.Dials
	c.Run(sim.Second)
	if grew := pool.Stats().Dials - dialsBefore; grew > uint64(2*n) {
		t.Fatalf("pool still churning after storm: %d dials in one quiet second", grew)
	}

	// Breakers opened during the storm have all re-armed.
	if s.BreakerOpens == 0 {
		t.Fatal("crash cycles never opened a dial breaker")
	}
	if open := pool.BreakersOpen(); open != 0 {
		t.Fatalf("%d dial breakers still open after recovery", open)
	}

	// Every back-end recovered: healthy again, records fresh.
	for _, b := range c.BackendIDs() {
		if h := m.Health(b); h != core.Healthy {
			t.Fatalf("backend %d health = %v after churn settled", b, h)
		}
		if _, at, ok := m.Latest(b); !ok || c.Eng.Now()-at > 5*poll {
			t.Fatalf("backend %d records stale after recovery", b)
		}
	}

	// Teardown: no leaked conns, QPs or fds.
	m.Stop()
	if got := pool.Stats().Live; got != 0 {
		t.Fatalf("conns leaked after Stop: %d", got)
	}
	if c.FNIC.QPsOpen() != 0 || c.FNIC.FDsInUse() != 0 {
		t.Fatalf("leaked QPs=%d fds=%d after Stop", c.FNIC.QPsOpen(), c.FNIC.FDsInUse())
	}
}
