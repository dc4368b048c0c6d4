//go:build !race

package cluster

import (
	"runtime"
	"testing"

	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

// memoryConfigs are the monitoring configurations whose memory the
// tests below pin. sweep is the bench's sweep workload (RDMA-Sync at a
// 10 ms poll, no web servers, 4 shards, doorbell batch 32); pooled,
// hybrid and ring add one mechanism each to it: a connection pool with
// every conn resident, the hybrid push/pull scheme, and a 16-slot
// history ring per agent. scaleout is all of the pooled scale-out run's
// mechanisms at once.
func memoryConfigs(backends int) []struct {
	name string
	cfg  Config
} {
	sweep := Config{Backends: backends, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, NoServers: true, MonitorShards: 4, MonitorBatch: 32}
	pooled, hybrid, ring := sweep, sweep, sweep
	pooled.Pool = &connpool.Config{}
	hybrid.Hybrid = &core.HybridConfig{}
	ring.HistoryK = 16
	// The Config experiments.ScaleOut (scaleout.go) builds at 1024
	// back-ends and seed 1: hybrid and failover on a pool whose conn and
	// dial budgets are those of 1024 back-ends, 8 shards × batch 32. The
	// flappers and the fault phases are left out.
	scaleout := Config{Backends: backends, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1 + 1024, NoServers: true, ProbeTimeout: 10 * sim.Millisecond,
		MonitorShards: 8, MonitorBatch: 32, Failover: true,
		Hybrid: &core.HybridConfig{
			Period:    core.PeriodConfig{Min: 10 * sim.Millisecond, Max: 640 * sim.Millisecond},
			Heartbeat: 320 * sim.Millisecond,
			Check:     10 * sim.Millisecond,
		},
		Pool: &connpool.Config{MaxConns: 128, DialsPerSec: 1024, IdleAfterNS: int64(500 * sim.Millisecond),
			BreakAfter: 2, ReopenAfterNS: int64(200 * sim.Millisecond)},
	}
	return []struct {
		name string
		cfg  Config
	}{{"sweep", sweep}, {"pooled", pooled}, {"hybrid", hybrid}, {"ring", ring}, {"scaleout", scaleout}}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// perBackend charges what n more back-ends cost in live heap to each
// of them: build(n) and build(2n) each build a fleet and run it for half
// a simulated second, and the live heaps, read with what build returned
// still reachable, are differenced. Whatever the process holds besides
// the fleet cancels out; a first, unmeasured build(n) makes what the
// process allocates once part of that, whichever test runs first.
func perBackend(t *testing.T, n int, build func(backends int) any) float64 {
	settled := func(backends int) uint64 {
		keep := build(backends)
		live := liveHeap()
		runtime.KeepAlive(keep)
		return live
	}
	settled(n)
	small, large := settled(n), settled(2*n)
	per := (float64(large) - float64(small)) / float64(n)
	t.Logf("%.0f B per back-end (live heap %.1f MB at %d, %.1f MB at %d back-ends)",
		per, float64(small)/1e6, n, float64(large)/1e6, 2*n)
	return per
}

// clusterOf is perBackend's build of cfg, at the fleet size asked.
func clusterOf(cfg Config) func(backends int) any {
	return func(backends int) any {
		cfg.Backends = backends
		c := New(cfg)
		c.Run(sim.Second / 2)
		return c
	}
}

// TestMemoryPerBackend pins what one more back-end costs in live heap
// once its monitoring has settled. Each budget is the cost measured
// when it was set plus 2 %, rounded up to 10 B (DESIGN §13).
func TestMemoryPerBackend(t *testing.T) {
	budget := map[string]float64{"sweep": 2030, "pooled": 2260, "hybrid": 3990, "ring": 8480, "scaleout": 5030}
	for _, tc := range memoryConfigs(1024) {
		t.Run(tc.name, func(t *testing.T) {
			per := perBackend(t, 1024, clusterOf(tc.cfg))
			if per > budget[tc.name] {
				t.Fatalf("a back-end costs %.0f B of live heap, budget %.0f B", per, budget[tc.name])
			}
		})
	}
}

// sweepLayers builds the sweep configuration's back-ends up to layer
// (1 the simos node with its kernel stats, 2 its NIC with the region
// table, 3 the agent with its registered region, 4 the prober with the
// monitor's share), wired as New wires them, and runs it for half a
// simulated second. It returns what keeps the fleet reachable.
func sweepLayers(backends, layer int) any {
	eng := sim.NewEngine(1)
	fab := simnet.NewFabric(eng, simnet.Config{})
	front := simos.NewNode(eng, 0, simos.Config{})
	fnic := fab.Attach(front)
	nodes := make([]*simos.Node, 0, backends)
	nics := make([]*simnet.NIC, 0, backends)
	var agents []*core.Agent
	for i := 1; i <= backends; i++ {
		n := simos.NewNode(eng, i, simos.Config{})
		nodes = append(nodes, n)
		if layer < 2 {
			continue
		}
		nic := fab.Attach(n)
		nics = append(nics, nic)
		if layer < 3 {
			continue
		}
		agents = append(agents, core.StartAgent(n, nic, core.AgentConfig{Scheme: core.RDMASync, Interval: 10 * sim.Millisecond}))
	}
	var m *core.Monitor
	if layer >= 4 {
		m = core.StartMonitorCfg(front, fnic, agents, 10*sim.Millisecond, core.MonitorConfig{Shards: 4, Batch: 32})
	}
	eng.RunUntil(sim.Second / 2)
	return []any{eng, fab, nodes, nics, agents, m}
}

// TestMemoryPerLayer breaks the sweep's bytes per back-end down by
// layer: each layer's cost is the per-back-end cost of the fleet built
// up to it less that of the fleet built up to the layer below, and
// "cluster" is what New adds over the four (its per-back-end slices and
// the dispatch view). Each budget is the cost measured when it was set
// plus 2 % and 16 B, rounded up to 10 B (DESIGN §13).
func TestMemoryPerLayer(t *testing.T) {
	layer := func(l int) func(int) any { return func(backends int) any { return sweepLayers(backends, l) } }
	layers := []struct {
		name   string
		budget float64
		build  func(backends int) any
	}{
		{"node", 1070, layer(1)}, {"nic", 260, layer(2)}, {"agent", 300, layer(3)},
		{"prober", 480, layer(4)}, {"cluster", 20, clusterOf(memoryConfigs(1024)[0].cfg)},
	}
	below := 0.0
	for _, l := range layers {
		per := perBackend(t, 1024, l.build)
		t.Logf("%-7s %5.0f B per back-end (budget %.0f)", l.name, per-below, l.budget)
		if per-below > l.budget {
			t.Errorf("layer %s costs %.0f B per back-end, budget %.0f B", l.name, per-below, l.budget)
		}
		below = per
	}
}

// TestMemoryFlatOverRunLength pins that monitoring state does not grow
// with simulated time: between 1 s and 3 s of a 1024-back-end run the
// live heap may grow by at most 1 %, in every configuration
// TestMemoryPerBackend prices and in the sequential monitor.
func TestMemoryFlatOverRunLength(t *testing.T) {
	configs := memoryConfigs(1024)
	seq := configs[0]
	seq.name, seq.cfg.MonitorShards, seq.cfg.MonitorBatch = "sequential", 1, 1
	for _, tc := range append(configs, seq) {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			c.Run(sim.Second)
			at1 := liveHeap()
			c.Run(2 * sim.Second)
			at3 := liveHeap()
			runtime.KeepAlive(c)
			growth := float64(at3)/float64(at1) - 1
			t.Logf("live heap %.2f MB at 1 s, %.2f MB at 3 s (%+.2f %%)", float64(at1)/1e6, float64(at3)/1e6, 100*growth)
			if growth > 0.01 {
				t.Fatalf("live heap grew %.1f %% from 1 s to 3 s of simulated time, want <= 1 %%", 100*growth)
			}
		})
	}
}
