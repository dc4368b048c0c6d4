//go:build !race

package cluster

import (
	"runtime"
	"testing"

	"rdmamon/internal/sim"
)

// TestDispatchAllocsPerRequest pins the request path of the bench's
// dispatch workload (64 back-ends, 1536 RUBiS clients, least-load): a
// served request's client think and patience timer, its fabric hops,
// port handoffs, dispatcher and worker continuations and its routing
// decision all run on state bound once, so what a request still
// allocates is its boxed request and reply. The two-second warm-up
// carries the response-time samples past their early doublings.
func TestDispatchAllocsPerRequest(t *testing.T) {
	c, pool := rubisCluster(64, PolicyLeastLoad)
	c.Run(2 * sim.Second)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	served0 := pool.Completed
	c.Run(sim.Second)
	runtime.ReadMemStats(&m1)
	served := pool.Completed - served0
	if served < 10000 {
		t.Fatalf("%d requests served in a settled second, want >= 10000", served)
	}
	perReq := float64(m1.Mallocs-m0.Mallocs) / float64(served)
	t.Logf("%.2f allocs, %.0f B per served request over %d requests", perReq,
		float64(m1.TotalAlloc-m0.TotalAlloc)/float64(served), served)
	if perReq > 3 {
		t.Fatalf("a served request allocates %.2f objects, want <= 3", perReq)
	}
}
