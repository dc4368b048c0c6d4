package cluster

import (
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
)

func haConfig(replicas int) Config {
	return Config{
		Backends:    4,
		Scheme:      core.RDMASync,
		Seed:        11,
		Policy:      PolicyWebSphere,
		LocalWeight: -1,
		Gamma:       4,
		Replicas:    replicas,
	}
}

func TestHAWiring(t *testing.T) {
	c := New(haConfig(3))
	if len(c.FrontEnds) != 3 {
		t.Fatalf("replicas = %d, want 3", len(c.FrontEnds))
	}
	if c.FrontEnds[0].Node != c.Front || c.FrontEnds[0].Dispatcher != c.Dispatcher {
		t.Fatal("replica 0 must alias the classic front-end")
	}
	want := []int{0, 5, 6}
	for i, id := range c.FrontEndIDs() {
		if id != want[i] {
			t.Fatalf("front-end IDs = %v, want %v", c.FrontEndIDs(), want)
		}
	}
	if c.Witness.ID != 7 {
		t.Fatalf("witness node = %d, want 7", c.Witness.ID)
	}
	for _, r := range c.FrontEnds {
		if r.Monitor == nil || r.Dispatcher == nil || r.ClaimMgr == nil {
			t.Fatalf("replica %d incompletely wired", r.Index)
		}
		if r.Dispatcher.Fence == nil {
			t.Fatalf("replica %d dispatcher not fenced", r.Index)
		}
	}
}

// primary returns the HA replica validly holding the one-shard claim,
// or nil.
func primary(c *Cluster) *Replica {
	now := c.Eng.Now()
	for _, r := range c.FrontEnds {
		if r.ClaimMgr.Valid(0, now) {
			return r
		}
	}
	return nil
}

func TestHAExactlyOnePrimaryAndWarmStandbys(t *testing.T) {
	c := New(haConfig(3))
	c.Run(2 * sim.Second)
	if n := len(c.ClaimVault.WordMRs); n != 1 {
		t.Fatalf("HA claim table has %d shards, want 1", n)
	}
	valid := 0
	for _, r := range c.FrontEnds {
		if r.ClaimMgr.Valid(0, c.Eng.Now()) {
			valid++
		}
	}
	if valid != 1 {
		t.Fatalf("%d valid claim holders, want exactly 1", valid)
	}
	if primary(c) == nil {
		t.Fatal("primary found nobody")
	}
	// Every replica — including the standbys — has a warm load view of
	// every back-end.
	for _, r := range c.FrontEnds {
		for _, b := range c.BackendIDs() {
			if _, _, ok := r.Monitor.Latest(b); !ok {
				t.Fatalf("replica %d has no record for back-end %d", r.Index, b)
			}
		}
	}
}

// TestHAStandbysCostBackendsNothing is the acceptance criterion that
// the paper's economics survive replication: under RDMA-Sync, going
// from one front-end to three adds zero back-end tasks and zero
// back-end interrupts — shadow monitoring is free to the monitored.
func TestHAStandbysCostBackendsNothing(t *testing.T) {
	irqs := func(replicas int) []uint64 {
		cfg := haConfig(replicas)
		cfg.NoServers = true // isolate monitoring cost from request traffic
		c := New(cfg)
		for _, a := range c.Agents {
			if got := a.BackendTasks(); got != 0 {
				t.Fatalf("RDMA-Sync agent runs %d back-end tasks, want 0", got)
			}
		}
		c.Run(5 * sim.Second)
		var out []uint64
		for _, n := range c.Backends {
			total := uint64(0)
			for cpu := 0; cpu < n.NumCPU(); cpu++ {
				total += n.K.CumIRQHard(cpu) + n.K.CumIRQSoft(cpu)
			}
			out = append(out, total)
		}
		return out
	}
	one, three := irqs(1), irqs(3)
	for i := range one {
		if one[i] != three[i] {
			t.Fatalf("back-end %d IRQs: 1 replica=%d, 3 replicas=%d — standby probing must be free",
				i+1, one[i], three[i])
		}
	}
}

func TestHAPrimaryCrashFailsOverAndRestartRejoins(t *testing.T) {
	c := New(haConfig(3))
	c.Run(2 * sim.Second)
	prim := primary(c)
	if prim == nil {
		t.Fatal("no primary")
	}
	epoch0 := prim.ClaimMgr.Claims[0].Epoch()

	crashAt := c.Eng.Now()
	plan := faults.Plan{Crashes: []faults.Crash{{
		Node: prim.Node.ID, At: crashAt + 10*sim.Millisecond, RestartAt: crashAt + 4*sim.Second,
	}}}
	c.ApplyFaults(plan)

	claim := c.Claim // resolved by New
	c.Run(10*sim.Millisecond + claim.ExpireAfter + 4*claim.CheckEvery)
	next := primary(c)
	if next == nil {
		t.Fatal("no takeover after the primary crash")
	}
	if next == prim {
		t.Fatal("crashed replica still primary")
	}
	if next.ClaimMgr.Claims[0].Epoch() <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, next.ClaimMgr.Claims[0].Epoch())
	}

	// After restart the old primary rejoins as a follower with fresh
	// state and must not disturb the new epoch.
	c.Run(4 * sim.Second)
	if prim.Down() {
		t.Fatal("replica not marked restarted")
	}
	rejoined := c.replicaByNode(prim.Node.ID)
	if rejoined.ClaimMgr.Claims[0].Held() {
		t.Fatalf("restarted replica should follow, is %v", rejoined.ClaimMgr.Claims[0])
	}
	if got := primary(c); got == nil || got.Node.ID != next.Node.ID {
		t.Fatal("restart disturbed the standing primary")
	}
	// And its monitor re-warmed.
	for _, b := range c.BackendIDs() {
		if _, _, ok := rejoined.Monitor.Latest(b); !ok {
			t.Fatalf("rejoined replica has no record for back-end %d", b)
		}
	}
}

// TestHAClientsFollowThePrimary drives real traffic through a primary
// crash: clients retarget via NotPrimary replies and timeouts, and
// service continues under the new epoch with zero fenced routes.
func TestHAClientsFollowThePrimary(t *testing.T) {
	cfg := haConfig(3)
	cfg.Backends = 4
	c := New(cfg)
	pool := c.StartRUBiS(32, 30*sim.Millisecond, 99)
	c.Run(2 * sim.Second)
	prim := primary(c)
	if prim == nil {
		t.Fatal("no primary")
	}
	served0 := c.TotalServed()
	if served0 == 0 {
		t.Fatal("no traffic before the crash")
	}

	crashAt := c.Eng.Now() + 10*sim.Millisecond
	c.ApplyFaults(faults.Plan{Crashes: []faults.Crash{{Node: prim.Node.ID, At: crashAt}}})
	c.Run(8 * sim.Second)

	if primary(c) == nil {
		t.Fatal("no primary after crash")
	}
	served1 := c.TotalServed()
	if served1 <= served0 {
		t.Fatalf("service did not continue after failover: %d -> %d", served0, served1)
	}
	if pool.Retargets == 0 {
		t.Fatal("clients never retargeted")
	}
	// Fenced standbys must have answered NotPrimary, not routed.
	for _, r := range c.FrontEnds {
		if r == prim || r.Dispatcher == nil {
			continue
		}
		cl := r.ClaimMgr.Claims[0]
		if !cl.Held() && r.Dispatcher.Routed > 0 && !cl.Valid(c.Eng.Now()) {
			// Routed counts requests routed while it held the claim —
			// acceptable only if it was primary at some point.
			if cl.Takeovers == 0 {
				t.Fatalf("follower replica %d routed %d requests", r.Index, r.Dispatcher.Routed)
			}
		}
	}
}
