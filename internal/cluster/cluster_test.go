package cluster

import (
	"math"
	"reflect"
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

func TestNewClusterWiring(t *testing.T) {
	c := New(Config{Backends: 4, Scheme: core.RDMASync, Seed: 1})
	if len(c.Backends) != 4 || len(c.Servers) != 4 || len(c.Agents) != 4 {
		t.Fatalf("wiring: %d backends, %d servers, %d agents",
			len(c.Backends), len(c.Servers), len(c.Agents))
	}
	if c.Front.ID != 0 {
		t.Fatal("front-end must be node 0")
	}
	ids := c.BackendIDs()
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("backend IDs = %v", ids)
		}
	}
	if c.Dispatcher == nil || c.Monitor == nil {
		t.Fatal("dispatcher/monitor missing")
	}
	c.Run(200 * sim.Millisecond)
	for _, b := range ids {
		if _, _, ok := c.Monitor.Latest(b); !ok {
			t.Fatalf("no record for backend %d after 200ms", b)
		}
	}
}

func TestClusterRUBiSEndToEnd(t *testing.T) {
	for _, s := range []core.Scheme{core.SocketSync, core.RDMASync} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := New(Config{Backends: 4, Scheme: s, Seed: 2})
			pool := c.StartRUBiS(32, 100*sim.Millisecond, 3)
			c.Run(5 * sim.Second)
			if pool.Completed < 500 {
				t.Fatalf("completed = %d, want a busy cluster", pool.Completed)
			}
			if c.TotalServed() != pool.Completed {
				t.Fatalf("served %d != completed %d (requests lost?)",
					c.TotalServed(), pool.Completed)
			}
			// All backends must participate.
			for _, srv := range c.Servers {
				if srv.Served() == 0 {
					t.Fatal("a backend served nothing: balancing broken")
				}
			}
			// Closed loop at moderate load: mean response within a
			// small multiple of mean service demand.
			if m := pool.All.Mean(); m < 1 || m > 50 {
				t.Fatalf("mean response = %.1fms, implausible", m)
			}
		})
	}
}

func TestClusterPolicies(t *testing.T) {
	for _, p := range []PolicyName{PolicyLeastLoad, PolicyRoundRobin, PolicyRandom} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			c := New(Config{Backends: 3, Scheme: core.RDMASync, Policy: p, Seed: 4})
			pool := c.StartRUBiS(12, 100*sim.Millisecond, 5)
			c.Run(3 * sim.Second)
			if pool.Completed == 0 {
				t.Fatal("no requests completed")
			}
		})
	}
}

func TestClusterUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy should panic")
		}
	}()
	New(Config{Backends: 2, Scheme: core.RDMASync, Policy: "bogus", Seed: 1})
}

func TestClusterNoMonitorNoServers(t *testing.T) {
	c := New(Config{Backends: 2, Scheme: core.RDMASync, NoMonitor: true, NoServers: true, Seed: 1})
	if c.Monitor != nil || c.Dispatcher != nil || len(c.Servers) != 0 || len(c.Agents) != 0 {
		t.Fatal("NoMonitor/NoServers should skip those components")
	}
	// Least-load policy with no monitor behaves (all score 0).
	wl := c.Policy.(*loadbalance.WeightedProportional)
	b := wl.Pick()
	if b < 1 || b > 2 {
		t.Fatalf("pick = %d", b)
	}
	c.Run(100 * sim.Millisecond)
}

func TestClusterMultiplePoolsDistinctClients(t *testing.T) {
	c := New(Config{Backends: 4, Scheme: core.RDMASync, Seed: 6})
	p1 := c.StartRUBiS(8, 100*sim.Millisecond, 7)
	z := workload.NewZipfTrace(2000, 0.5, 8)
	p2 := c.StartZipf(z, 8, 100*sim.Millisecond, 9)
	c.Run(3 * sim.Second)
	if p1.Completed == 0 || p2.Completed == 0 {
		t.Fatalf("both pools must progress: %d / %d", p1.Completed, p2.Completed)
	}
	if c.TotalServed() != p1.Completed+p2.Completed {
		t.Fatalf("served %d != %d+%d", c.TotalServed(), p1.Completed, p2.Completed)
	}
	if _, ok := p2.PerClass["zipf"]; !ok {
		t.Fatal("zipf pool should record the zipf class")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		c := New(Config{Backends: 4, Scheme: core.SocketAsync, Seed: 42})
		pool := c.StartRUBiS(16, 100*sim.Millisecond, 43)
		c.Run(3 * sim.Second)
		return pool.Completed, pool.All.Mean()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("nondeterministic cluster: (%d,%v) vs (%d,%v)", c1, m1, c2, m2)
	}
}

// TestDispatchWindowBitReproducible pins the simulator's bit-for-bit
// contract on the dispatcher's recent-traffic window: the same Config
// and seed give the same LocalFrac bit pattern for every back-end and
// the same per-node routing counts. Any float64 accumulated in Go map
// iteration order would fail this: its low bits vary from run to run.
func TestDispatchWindowBitReproducible(t *testing.T) {
	const n = 64
	run := func() ([]uint64, map[int]uint64) {
		c := New(Config{Backends: n, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
			Seed: 7, Policy: PolicyLeastLoad, MonitorShards: 4, MonitorBatch: 32})
		c.StartRUBiS(24*n, 100*sim.Millisecond, 8)
		c.Run(300 * sim.Millisecond)
		bits := make([]uint64, 0, n)
		for _, b := range c.BackendIDs() {
			bits = append(bits, math.Float64bits(c.Dispatcher.LocalFrac(b)))
		}
		return bits, c.Dispatcher.ByNode
	}
	bits1, byNode1 := run()
	if len(byNode1) != n {
		t.Fatalf("only %d of %d back-ends routed to: the window is not exercised", len(byNode1), n)
	}
	for rerun := 0; rerun < 3; rerun++ {
		bits2, byNode2 := run()
		for i := range bits1 {
			if bits1[i] != bits2[i] {
				t.Fatalf("rerun %d: LocalFrac(%d) bits %016x vs %016x", rerun, i+1, bits1[i], bits2[i])
			}
		}
		if !reflect.DeepEqual(byNode1, byNode2) {
			t.Fatalf("rerun %d: ByNode differs: %v vs %v", rerun, byNode1, byNode2)
		}
	}
}
