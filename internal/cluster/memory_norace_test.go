//go:build !race

package cluster

import (
	"runtime"
	"testing"

	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
)

// memoryConfigs are the monitoring configurations whose memory the
// tests below pin. sweep is the bench's sweep workload (RDMA-Sync at a
// 10 ms poll, no web servers, 4 shards, doorbell batch 32); the others
// add one mechanism each to it: a connection pool with every conn
// resident, the hybrid push/pull scheme, and a 16-slot history ring per
// agent.
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
	return []struct {
		name string
		cfg  Config
	}{{"sweep", sweep}, {"pooled", pooled}, {"hybrid", hybrid}, {"ring", ring}}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settledLiveHeap builds cfg, runs it for d and returns the live heap
// with the cluster still reachable.
func settledLiveHeap(cfg Config, d sim.Time) uint64 {
	c := New(cfg)
	c.Run(d)
	live := liveHeap()
	runtime.KeepAlive(c)
	return live
}

// TestMemoryPerBackend pins what one more back-end costs in live heap
// once its monitoring has settled: build N and 2N back-ends, run each
// for half a simulated second, and charge the difference to the extra
// N. Whatever the process holds besides the cluster cancels out. Each
// budget is the cost measured when it was set plus 10 % (DESIGN §13).
func TestMemoryPerBackend(t *testing.T) {
	const n = 1024
	budget := map[string]float64{"sweep": 3560, "pooled": 3760, "hybrid": 6480, "ring": 12490}
	for _, tc := range memoryConfigs(n) {
		t.Run(tc.name, func(t *testing.T) {
			small := settledLiveHeap(tc.cfg, sim.Second/2)
			tc.cfg.Backends = 2 * n
			large := settledLiveHeap(tc.cfg, sim.Second/2)
			perBackend := (float64(large) - float64(small)) / n
			t.Logf("%.0f B per back-end (live heap %.1f MB at %d, %.1f MB at %d back-ends)",
				perBackend, float64(small)/1e6, n, float64(large)/1e6, 2*n)
			if perBackend > budget[tc.name] {
				t.Fatalf("a back-end costs %.0f B of live heap, budget %.0f B", perBackend, budget[tc.name])
			}
		})
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
