package cluster

import (
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
)

// TestCrashQuarantineAndReadmit is the acceptance scenario: under a
// two-node crash/restart plan the monitor must quarantine the dead
// back-ends within 3 probe periods, the weighted dispatcher must send
// them zero traffic while quarantined, and after the restart they must
// pass probation and rejoin the dispatch set.
func TestCrashQuarantineAndReadmit(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SocketSync, core.RDMASync} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			poll := 50 * sim.Millisecond
			c := New(Config{
				Backends:     4,
				Scheme:       scheme,
				Poll:         poll,
				Seed:         11,
				ProbeTimeout: poll,
			})
			crashAt := 2 * sim.Second
			restartAt := 6 * sim.Second
			in := c.ApplyFaults(faults.Plan{Seed: 11, Crashes: []faults.Crash{
				{Node: 2, At: crashAt, RestartAt: restartAt},
				{Node: 3, At: crashAt, RestartAt: restartAt},
			}})
			pool := c.StartRUBiS(24, 100*sim.Millisecond, 5)

			// Warm up: everyone healthy and receiving probes.
			c.Run(1 * sim.Second)
			for _, b := range c.BackendIDs() {
				if h := c.Monitor.Health(b); h != core.Healthy {
					t.Fatalf("backend %d pre-crash health = %v", b, h)
				}
			}

			// Crash + 3 probe cycles. A cycle with two dead back-ends
			// stretches to poll + 2*ProbeTimeout (each timed-out probe
			// holds the sequential sweep for its full deadline), plus
			// one cycle of slack for the sweep in flight at crash time.
			cycle := poll + 2*poll
			c.Run(crashAt - c.Eng.Now() + 3*cycle + cycle)
			for _, b := range []int{2, 3} {
				if h := c.Monitor.Health(b); h != core.Quarantined {
					t.Fatalf("backend %d health = %v within 3 probe periods of crash", b, h)
				}
			}
			if in.CrashEvents != 2 {
				t.Fatalf("CrashEvents = %d", in.CrashEvents)
			}

			// While quarantined: zero dispatched traffic to dead nodes.
			wp := c.Policy.(*loadbalance.WeightedProportional)
			routed := c.Dispatcher.ByNode
			before2, before3 := routed[2], routed[3]
			c.Run(restartAt - c.Eng.Now() - 100*sim.Millisecond)
			if routed[2] != before2 || routed[3] != before3 {
				t.Fatalf("quarantined back-ends picked: 2: %d->%d, 3: %d->%d",
					before2, routed[2], before3, routed[3])
			}
			if wp.ExcludedPicks == 0 {
				t.Fatal("ExcludedPicks stayed zero while two back-ends were quarantined")
			}

			// After restart + probation: healthy and dispatched to again.
			c.Run(restartAt - c.Eng.Now() + 10*poll)
			for _, b := range []int{2, 3} {
				if h := c.Monitor.Health(b); h != core.Healthy {
					t.Fatalf("backend %d health = %v after restart+probation", b, h)
				}
			}
			after2, after3 := routed[2], routed[3]
			c.Run(2 * sim.Second)
			if routed[2] == after2 && routed[3] == after3 {
				t.Fatal("re-admitted back-ends never dispatched to")
			}
			if pool.Completed == 0 {
				t.Fatal("no requests completed")
			}
			// Served counts stay consistent even across server respawns.
			if got := c.TotalServed(); got == 0 {
				t.Fatalf("TotalServed = %d", got)
			}
		})
	}
}

// TestLinkFlapDegradesNotDies: a lossy window on the front-end's links
// raises probe errors but the system keeps serving and every back-end
// returns to Healthy after the window.
func TestLinkFlapDegradesNotDies(t *testing.T) {
	poll := 50 * sim.Millisecond
	c := New(Config{
		Backends:     4,
		Scheme:       core.SocketSync,
		Poll:         poll,
		Seed:         13,
		ProbeTimeout: poll,
	})
	c.ApplyFaults(faults.Plan{
		Seed: 13,
		Links: []faults.LinkFault{{
			From: faults.Any, To: faults.Any,
			Start: 1 * sim.Second, End: 3 * sim.Second,
			Drop: 0.4,
		}},
	})
	pool := c.StartRUBiS(16, 100*sim.Millisecond, 7)
	c.Run(6 * sim.Second)

	errs := 0
	for _, p := range c.Monitor.Probers {
		errs += p.Errors
	}
	if errs == 0 {
		t.Fatal("no probe errors under a 40% loss window")
	}
	for _, b := range c.BackendIDs() {
		if h := c.Monitor.Health(b); h != core.Healthy {
			t.Fatalf("backend %d health = %v after the flap cleared", b, h)
		}
	}
	if pool.Completed == 0 {
		t.Fatal("no requests completed under link flap")
	}
}

// TestMRInvalidationRecovers: revoking the agent's memory region makes
// RDMA probes fail until the agent re-pins, then probing resumes with
// the fresh key.
func TestMRInvalidationRecovers(t *testing.T) {
	poll := 50 * sim.Millisecond
	c := New(Config{
		Backends:     2,
		Scheme:       core.RDMASync,
		Poll:         poll,
		Seed:         17,
		ProbeTimeout: poll,
		MRRepin:      200 * sim.Millisecond,
	})
	c.ApplyFaults(faults.Plan{
		Seed:            17,
		MRInvalidations: []faults.MRInvalidation{{Node: 1, At: 1 * sim.Second}},
	})
	// Past the invalidation (t=1s) and the 200ms re-pin, with slack
	// for probes already in flight when the new key appeared.
	c.Run(1*sim.Second + 500*sim.Millisecond)
	p := c.Monitor.Probers[1]
	if p.Errors == 0 {
		t.Fatal("no probe errors after MR invalidation")
	}
	errsAtRepin := p.Errors
	c.Run(2 * sim.Second)
	if p.Errors != errsAtRepin {
		t.Fatalf("probe errors kept rising after re-pin: %d -> %d", errsAtRepin, p.Errors)
	}
	if h := c.Monitor.Health(1); h != core.Healthy {
		t.Fatalf("backend 1 health = %v after re-pin", h)
	}
}
