package core

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// fleet builds a front-end plus n back-end agents on one fabric.
type fleet struct {
	eng    *sim.Engine
	front  *simos.Node
	fnic   *simnet.NIC
	agents []*Agent
}

func newFleet(seed int64, n int, cfg AgentConfig) *fleet {
	eng := sim.NewEngine(seed)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	f := &fleet{eng: eng, front: front, fnic: fab.Attach(front)}
	for i := 1; i <= n; i++ {
		nd := simos.NewNode(eng, i, simos.NodeDefaults())
		f.agents = append(f.agents, StartAgent(nd, fab.Attach(nd), cfg))
	}
	return f
}

// TestShardedMonitorRecordsMatchSequential: every back-end's record
// stream under sharding+batching carries that back-end's own node ID
// and stays fresh — batching must never mis-attribute or skip records.
func TestShardedMonitorRecordsMatchSequential(t *testing.T) {
	const n = 16
	for _, cfg := range []MonitorConfig{{}, {Shards: 1, Batch: 4}, {Shards: 4, Batch: 4}, {Shards: 3, Batch: 64}} {
		f := newFleet(41, n, AgentConfig{Scheme: RDMASync})
		m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, cfg)
		f.eng.RunUntil(sim.Second)
		if m.Cycles < 50 {
			t.Fatalf("cfg %+v: %d cycles in 1s at 10ms poll", cfg, m.Cycles)
		}
		for _, b := range m.Backends() {
			rec, at, ok := m.Latest(b)
			if !ok {
				t.Fatalf("cfg %+v: no record for backend %d", cfg, b)
			}
			if int(rec.NodeID) != b {
				t.Fatalf("cfg %+v: backend %d holds a record from node %d", cfg, b, rec.NodeID)
			}
			if age := f.eng.Now() - at; age > 30*sim.Millisecond {
				t.Fatalf("cfg %+v: backend %d record stale by %v", cfg, b, age)
			}
			if p := m.Probers[b]; p.Errors != 0 {
				t.Fatalf("cfg %+v: backend %d saw %d probe errors", cfg, b, p.Errors)
			}
		}
	}
}

// TestShardedMonitorSeqMonotonic: per-backend record sequence numbers
// never regress under the batched engine (the freshness invariant the
// dispatcher relies on).
func TestShardedMonitorSeqMonotonic(t *testing.T) {
	const n = 24
	f := newFleet(42, n, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 5*sim.Millisecond, MonitorConfig{Shards: 4, Batch: 8})
	lastSeq := make(map[int]uint32)
	obs := 0
	for _, b := range m.Backends() {
		b := b
		m.Probers[b].OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			if rec.Seq < lastSeq[b] {
				t.Errorf("backend %d: seq regressed %d -> %d", b, lastSeq[b], rec.Seq)
			}
			lastSeq[b] = rec.Seq
			obs++
		}
	}
	f.eng.RunUntil(2 * sim.Second)
	if obs < n*100 {
		t.Fatalf("only %d observations", obs)
	}
}

// TestShardedMonitorCycleSpeedup: at many back-ends the batched,
// sharded engine's sweep is at least 4x faster than the sequential
// monitor's — the scaling claim of the probe engine.
func TestShardedMonitorCycleSpeedup(t *testing.T) {
	const n = 64
	run := func(cfg MonitorConfig) float64 {
		f := newFleet(43, n, AgentConfig{Scheme: RDMASync})
		m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, cfg)
		f.eng.RunUntil(sim.Second)
		if m.Cycles == 0 {
			t.Fatalf("cfg %+v: no completed sweeps", cfg)
		}
		return m.CycleTime.Mean()
	}
	seq := run(MonitorConfig{})
	fast := run(MonitorConfig{Shards: 4, Batch: 16})
	if fast*4 > seq {
		t.Fatalf("batched sweep %.0fus not >=4x faster than sequential %.0fus", fast, seq)
	}
}

// TestShardedMonitorFailoverUnderBatch: an MR invalidation inside a
// batched shard degrades only that back-end to the standby socket in
// the same cycle, trips its breaker, and fails back after the re-pin —
// while its batch-mates keep probing over RDMA undisturbed.
func TestShardedMonitorFailoverUnderBatch(t *testing.T) {
	const n = 8
	poll := 10 * sim.Millisecond
	f := newFleet(44, n, AgentConfig{Scheme: RDMASync, StandbySocket: true})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, poll, MonitorConfig{Shards: 2, Batch: 4})
	m.SetProbeTimeout(poll)
	m.ArmFailover(FailoverConfig{})

	f.eng.RunUntil(200 * sim.Millisecond)
	victim := 3
	f.agents[victim-1].InvalidateMR(300 * sim.Millisecond)

	f.eng.RunUntil(290 * sim.Millisecond)
	vp := m.Probers[victim]
	if vp.Errors != 0 {
		t.Fatalf("victim saw %d errors: same-cycle fallback must mask RDMA breakage", vp.Errors)
	}
	if vp.LastTransport != TransportSocket || vp.Fallbacks == 0 {
		t.Fatalf("victim transport=%v fallbacks=%d, want socket-served records", vp.LastTransport, vp.Fallbacks)
	}
	if !vp.Failover.Tripped() {
		t.Fatal("victim breaker not tripped during sustained outage")
	}
	if m.Health(victim) != Degraded {
		t.Fatalf("victim health = %v, want degraded", m.Health(victim))
	}
	for _, b := range m.Backends() {
		if b == victim {
			continue
		}
		p := m.Probers[b]
		if p.Fallbacks != 0 || p.Errors != 0 || m.Health(b) != Healthy {
			t.Fatalf("batch-mate %d disturbed: fallbacks=%d errors=%d health=%v",
				b, p.Fallbacks, p.Errors, m.Health(b))
		}
	}

	// After the re-pin the victim must fail back to RDMA and rejoin the
	// doorbell batches.
	f.eng.RunUntil(2 * sim.Second)
	if vp.Failover.Tripped() || vp.Failover.FailBacks != 1 {
		t.Fatalf("victim did not fail back: tripped=%v failbacks=%d",
			vp.Failover.Tripped(), vp.Failover.FailBacks)
	}
	if vp.LastTransport != TransportRDMA || m.Health(victim) != Healthy {
		t.Fatalf("victim transport=%v health=%v after re-pin", vp.LastTransport, m.Health(victim))
	}
	if _, at, ok := m.Latest(victim); !ok || f.eng.Now()-at > 3*poll {
		t.Fatal("victim records went stale across the outage")
	}
}

// TestMonitorCfgDefaults: degenerate configs normalize instead of
// crashing — zero values, more shards than back-ends.
func TestMonitorCfgDefaults(t *testing.T) {
	f := newFleet(45, 2, AgentConfig{Scheme: RDMASync})
	m := StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{Shards: 16, Batch: -1})
	f.eng.RunUntil(200 * sim.Millisecond)
	if m.Cycles == 0 {
		t.Fatal("over-sharded monitor never completed a sweep")
	}
	for _, b := range m.Backends() {
		if _, _, ok := m.Latest(b); !ok {
			t.Fatalf("no record for backend %d", b)
		}
	}
}

// BenchmarkSweepBatch256 is the host cost of one read of the settled
// sweep at the gate configuration — 256 back-ends, 4 shards, doorbell
// batch 32 — through core + simnet + simos + sim, the fleet's own timer
// ticks included (ns/op and allocs/op are per read).
func BenchmarkSweepBatch256(b *testing.B) {
	f := newFleet(1, 256, AgentConfig{Scheme: RDMASync})
	StartMonitorCfg(f.front, f.fnic, f.agents, 10*sim.Millisecond, MonitorConfig{Shards: 4, Batch: 32})
	f.eng.RunUntil(2 * sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for target := f.fnic.RDMAReads + uint64(b.N); f.fnic.RDMAReads < target; {
		if !f.eng.Step() {
			b.Fatal("simulation ran out of events")
		}
	}
}
