package cluster

import (
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
)

// TestMRInvalidationFailoverAndFailBack is the issue's acceptance
// scenario for the transport breaker: under an MR-invalidation fault an
// RDMA-monitored back-end must degrade to socket probing (staying
// monitored within the staleness budget and still receiving dispatched
// traffic, at a penalty), then fail back to RDMA and full health after
// the agent re-pins its region.
func TestMRInvalidationFailoverAndFailBack(t *testing.T) {
	poll := 50 * sim.Millisecond
	repin := 2 * sim.Second
	victim := 2
	c := New(Config{
		Backends: 4,
		Scheme:   core.RDMASync,
		Poll:     poll,
		Seed:     23,
		Policy:   PolicyWebSphere,
		MRRepin:  repin,
		Failover: true,
	})
	invalidateAt := 2 * sim.Second
	c.ApplyFaults(faults.Plan{
		MRInvalidations: []faults.MRInvalidation{{Node: victim, At: invalidateAt}},
	})
	c.StartRUBiS(24, 100*sim.Millisecond, 5)

	// Warm up: all healthy over RDMA, breaker armed but silent.
	c.Run(1 * sim.Second)
	fo := c.Monitor.Failover(victim)
	if fo == nil {
		t.Fatal("Config.Failover did not arm the monitor's breakers")
	}
	if fo.Tripped() || c.Monitor.Health(victim) != core.Healthy {
		t.Fatalf("pre-fault: tripped=%v health=%v", fo.Tripped(), c.Monitor.Health(victim))
	}

	// Invalidation + a few sweeps: the breaker must have tripped, the
	// victim must be Degraded (not Suspect or Quarantined — the server
	// itself is fine), and its record must still be fresh via the socket
	// standby: the staleness budget is ~one sweep, not TripAfter sweeps.
	c.Run(invalidateAt - c.Eng.Now() + 6*poll)
	if !fo.Tripped() {
		t.Fatal("breaker not tripped after sustained MR invalidation")
	}
	if h := c.Monitor.Health(victim); h != core.Degraded {
		t.Fatalf("victim health = %v during outage, want degraded", h)
	}
	if _, at, ok := c.Monitor.Latest(victim); !ok || c.Eng.Now()-at > 4*poll {
		t.Fatalf("victim record stale by %v during outage", c.Eng.Now()-at)
	}

	// Degraded stays in the dispatch set, discounted: traffic continues.
	wp := c.Policy.(*loadbalance.WeightedProportional)
	before := c.Dispatcher.ByNode[victim]
	c.Run(1 * sim.Second)
	if c.Dispatcher.ByNode[victim] == before {
		t.Fatal("degraded back-end received zero traffic")
	}
	if wp.DegradedPicks == 0 {
		t.Fatal("DegradedPicks stayed zero while a back-end was degraded")
	}

	// After the re-pin, the low-rate re-arm probes must fail the breaker
	// back and the health machine must return to Healthy over RDMA.
	// Re-arm runs every 4th fallback cycle and needs 2 consecutive
	// successes, so give it a couple of seconds of quiet time.
	c.Run(invalidateAt + repin - c.Eng.Now() + 3*sim.Second)
	if fo.Tripped() {
		t.Fatal("breaker still tripped long after MR re-pin")
	}
	if fo.Trips != 1 || fo.FailBacks != 1 {
		t.Fatalf("Trips/FailBacks = %d/%d, want 1/1", fo.Trips, fo.FailBacks)
	}
	if h := c.Monitor.Health(victim); h != core.Healthy {
		t.Fatalf("victim health = %v after fail-back, want healthy", h)
	}
	p := c.Monitor.Probers[victim]
	if p.LastTransport != core.TransportRDMA {
		t.Fatalf("victim probed via %v after fail-back, want rdma", p.LastTransport)
	}
	if p.Fallbacks == 0 || p.ReArms == 0 {
		t.Fatalf("Fallbacks/ReArms = %d/%d, want both non-zero", p.Fallbacks, p.ReArms)
	}

	// The untouched back-ends never left RDMA.
	for _, b := range c.BackendIDs() {
		if b == victim {
			continue
		}
		if c.Monitor.Probers[b].Fallbacks != 0 {
			t.Fatalf("backend %d fell back %d times without a fault", b, c.Monitor.Probers[b].Fallbacks)
		}
	}
}

// TestFailoverIgnoredOnSocketSchemes: arming failover under a socket
// scheme is a documented no-op — there is no faster path to fall back
// from, and probing must behave exactly as unarmed.
func TestFailoverIgnoredOnSocketSchemes(t *testing.T) {
	c := New(Config{
		Backends: 2,
		Scheme:   core.SocketSync,
		Poll:     50 * sim.Millisecond,
		Seed:     3,
		Failover: true,
	})
	c.Run(1 * sim.Second)
	for _, b := range c.BackendIDs() {
		if c.Monitor.Failover(b) != nil {
			t.Fatalf("backend %d has a breaker under a socket scheme", b)
		}
		if c.Monitor.Health(b) != core.Healthy {
			t.Fatalf("backend %d health = %v", b, c.Monitor.Health(b))
		}
	}
}
