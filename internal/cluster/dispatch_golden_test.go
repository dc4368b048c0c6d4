package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rdmamon/internal/admission"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

// dispatchRun is one seeded request-path run: the RUBiS cluster the
// bench's dispatch workload builds, at a chosen fleet and policy.
type dispatchRun struct {
	backends  int
	policy    PolicyName
	admission bool
}

// dispatchDigest runs r for 2 simulated seconds and hashes every routing
// decision — its instant and the chosen back-end, in decision order —
// followed by the final served, timeout and rejected counts. It pins
// what the dispatcher did with the records the monitor held, decision
// by decision.
func dispatchDigest(r dispatchRun) (digest uint64, decisions int) {
	c, pool := rubisCluster(r.backends, r.policy)
	if r.admission {
		c.EnableAdmission(admission.Config{Threshold: 0.08, Weights: core.WeightsFor(core.RDMASync)})
	}
	h := fnv.New64a()
	var buf [16]byte
	c.Dispatcher.OnRoute = func(b int) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(c.Eng.Now()))
		binary.LittleEndian.PutUint64(buf[8:], uint64(b))
		h.Write(buf[:])
		decisions++
	}
	c.Run(2 * sim.Second)
	for _, v := range []uint64{c.TotalServed(), pool.Timeouts, pool.Rejected} {
		binary.LittleEndian.PutUint64(buf[:8], v)
		h.Write(buf[:8])
	}
	return h.Sum64(), decisions
}

// TestDispatchDecisionGoldenDigests pins every routing decision of the
// weighted policies — least-load and WebSphere at 16 and 64 back-ends,
// and least-load behind admission control — against digests captured
// before the request path stopped copying records and allocating per
// hop: the decisions must not move when only their cost does.
func TestDispatchDecisionGoldenDigests(t *testing.T) {
	for _, g := range []struct {
		run       dispatchRun
		digest    uint64
		decisions int
	}{
		{dispatchRun{16, PolicyLeastLoad, false}, 0xf39d14fe8d65b5d4, 6836},
		{dispatchRun{16, PolicyWebSphere, false}, 0xc286993bca799dd3, 7234},
		{dispatchRun{64, PolicyLeastLoad, false}, 0x9f0598574863f6ff, 26649},
		{dispatchRun{64, PolicyWebSphere, false}, 0x93e1b9a1fe9443a7, 29422},
		{dispatchRun{16, PolicyLeastLoad, true}, 0x83c704d44266542a, 6194},
	} {
		got, n := dispatchDigest(g.run)
		if got != g.digest || n != g.decisions {
			t.Errorf("%+v: %d decisions, digest 0x%016x; want %d, golden 0x%016x",
				g.run, n, got, g.decisions, g.digest)
		}
	}
}

// rubisCluster builds the bench's dispatch workload at a given fleet
// and policy: RDMA-Sync records, 24 RUBiS clients per back-end.
func rubisCluster(backends int, policy PolicyName) (*Cluster, *workload.ClientPool) {
	c := New(Config{Backends: backends, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, Policy: policy, MonitorShards: 4, MonitorBatch: 32})
	return c, c.StartRUBiS(24*backends, 100*sim.Millisecond, 2)
}

// BenchmarkDispatchRequest times one served request of the 64-back-end
// dispatch workload, settled: ns/op and allocs/op are per request,
// everything the simulator does meanwhile (monitor sweep, ticks)
// included.
func BenchmarkDispatchRequest(b *testing.B) {
	c, pool := rubisCluster(64, PolicyLeastLoad)
	c.Run(2 * sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for target := pool.Completed + uint64(b.N); pool.Completed < target; {
		c.Run(5 * sim.Millisecond)
	}
}
