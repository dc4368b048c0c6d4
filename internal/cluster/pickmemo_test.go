package cluster

import (
	"math/rand"
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// TestPickMemoExact runs the 64-back-end RUBiS cluster under every way
// a record reaches the monitor's cache — point reads, pushes landing
// through the hybrid sink, history-ring reads, and socket fallbacks
// under an armed breaker (with the degraded penalty in play) — and at
// every dispatch instant checks the memoized least-load pick against a
// twin policy with Updates nil and an identically seeded Rng, which
// scores every candidate afresh. A cache write that does not move
// Monitor.Updates leaves the memo stale and the two disagree.
func TestPickMemoExact(t *testing.T) {
	rdma := Config{Backends: 64, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, Policy: PolicyLeastLoad, MonitorShards: 4, MonitorBatch: 32}
	hybrid, ring, failover := rdma, rdma, rdma
	hybrid.Hybrid = &core.HybridConfig{}
	ring.HistoryK = 16
	failover.Failover = true
	failover.ProbeTimeout = rdma.Poll
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"rdma-sync", rdma}, {"hybrid", hybrid}, {"ring", ring}, {"failover", failover}} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			c.StartRUBiS(24*tc.cfg.Backends, 100*sim.Millisecond, 2)
			if tc.cfg.Failover {
				var plan faults.Plan
				for _, b := range []int{3, 17, 40} {
					plan.MRInvalidations = append(plan.MRInvalidations,
						faults.MRInvalidation{Node: b, At: 300 * sim.Millisecond})
				}
				c.ApplyFaults(plan)
			}
			w := c.Policy.(*loadbalance.WeightedLeastLoad)
			w.Rng = rand.New(rand.NewSource(7))
			twinRng := rand.New(rand.NewSource(7))
			var decisions int
			c.Dispatcher.OnRoute = func(b int) {
				// The dispatcher calls OnRoute between the pick and the
				// forward, so the twin sees what the pick saw.
				twin := *w
				twin.Updates, twin.Rng = nil, twinRng
				if want := twin.Pick(); want != b {
					t.Fatalf("decision %d at %v: memoized pick %d, fresh scoring picks %d",
						decisions, c.Eng.Now(), b, want)
				}
				decisions++
			}
			c.Run(sim.Second)
			if decisions < 10000 {
				t.Fatalf("%d decisions checked, want >= 10000", decisions)
			}
			if tc.cfg.Failover && w.DegradedPicks == 0 {
				t.Fatal("no pick landed on a degraded back-end: the penalty went unchecked")
			}
		})
	}
}

// TestPickScoresOncePerRecord pins what the memo buys: over one settled
// simulated second of the bench's dispatch workload, least-load reads a
// back-end's record only when a new one has landed, plus at most once
// per back-end. Scoring every candidate on every pick read 64 records
// per decision, ~840 000 in that second.
func TestPickScoresOncePerRecord(t *testing.T) {
	c, _ := rubisCluster(64, PolicyLeastLoad)
	c.Run(sim.Second)
	w := c.Policy.(*loadbalance.WeightedLeastLoad)
	source := w.Source
	var calls uint64
	w.Source = func(b int) (wire.LoadRecord, bool) {
		calls++
		return source(b)
	}
	ids := c.BackendIDs()
	before := make([]uint64, len(ids))
	for i, b := range ids {
		before[i] = c.Monitor.Updates(b)
	}
	routed := c.Dispatcher.Routed
	c.Run(sim.Second)
	var landed uint64
	for i, b := range ids {
		landed += c.Monitor.Updates(b) - before[i]
	}
	picks := c.Dispatcher.Routed - routed
	t.Logf("%d picks read %d records; %d records landed", picks, calls, landed)
	if picks < 10000 {
		t.Fatalf("%d picks in a settled second, want >= 10000", picks)
	}
	if limit := landed + uint64(len(ids)); calls > limit {
		t.Fatalf("%d Source calls, want <= %d (records landed + back-ends)", calls, limit)
	}
}
