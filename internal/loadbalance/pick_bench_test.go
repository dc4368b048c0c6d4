package loadbalance_test

import (
	"fmt"
	"testing"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
)

// dispatchCluster builds an n-back-end cluster under RUBiS clients and
// routes traffic until the dispatcher's recent-traffic window names
// every back-end, so Pick runs against the Source, Exclude and
// LocalFrac the cluster wires in, all populated.
func dispatchCluster(tb testing.TB, n int, policy cluster.PolicyName) *cluster.Cluster {
	c := cluster.New(cluster.Config{Backends: n, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, Policy: policy, MonitorShards: 4, MonitorBatch: 32})
	c.StartRUBiS(24*n, 100*sim.Millisecond, 2)
	for step := 0; len(c.Dispatcher.ByNode) < n; step++ {
		if step == 400 {
			tb.Fatalf("%d of %d back-ends routed to after 2 simulated seconds", len(c.Dispatcher.ByNode), n)
		}
		c.Eng.RunFor(5 * sim.Millisecond)
	}
	return c
}

// TestPickZeroAlloc pins the steady dispatch path: one routing
// decision of either weighted policy allocates nothing.
func TestPickZeroAlloc(t *testing.T) {
	for _, policy := range []cluster.PolicyName{cluster.PolicyLeastLoad, cluster.PolicyWebSphere} {
		p := dispatchCluster(t, 64, policy).Policy
		p.Pick() // sizes the policy's scratch
		if allocs := testing.AllocsPerRun(200, func() { p.Pick() }); allocs != 0 {
			t.Errorf("%s: Pick allocates %.1f objects/op, want 0", policy, allocs)
		}
	}
}

var pickSink int

// BenchmarkPick times one routing decision of each weighted policy, as
// the cluster wires it, against fleet size; ns/op should grow linearly
// with n.
func BenchmarkPick(b *testing.B) {
	for _, policy := range []cluster.PolicyName{cluster.PolicyLeastLoad, cluster.PolicyWebSphere} {
		for _, n := range []int{8, 64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/n=%d", policy, n), func(b *testing.B) {
				p := dispatchCluster(b, n, policy).Policy
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pickSink = p.Pick()
				}
			})
		}
	}
}
