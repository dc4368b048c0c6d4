package cluster

import (
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
)

// TestBackendSpecsHonored: per-backend overrides land on the right
// node — CPU count, worker pool, agent interval and NIC latency — and
// unlisted back-ends keep the fleet defaults.
func TestBackendSpecsHonored(t *testing.T) {
	c := New(Config{
		Backends: 4, Scheme: core.RDMASync, Seed: 1,
		BackendSpecs: []BackendSpec{
			{Template: "fast", CPUs: 4, Workers: 16, AgentInterval: 20 * sim.Millisecond},
			{Template: "slow", CPUs: 1, Workers: 2, NICLatency: 100 * sim.Microsecond},
		},
	})
	if got := c.Backends[0].NumCPU(); got != 4 {
		t.Errorf("backend 1 CPUs = %d, want 4", got)
	}
	if got := c.Backends[1].NumCPU(); got != 1 {
		t.Errorf("backend 2 CPUs = %d, want 1", got)
	}
	if got := c.Backends[2].NumCPU(); got == 4 || got == 1 {
		t.Errorf("backend 3 CPUs = %d, want the node default", got)
	}
	if got := c.Servers[0].Cfg.Workers; got != 16 {
		t.Errorf("backend 1 workers = %d, want 16", got)
	}
	if got := c.Servers[1].Cfg.Workers; got != 2 {
		t.Errorf("backend 2 workers = %d, want 2", got)
	}
	if got := c.Servers[2].Cfg.Workers; got != backendWorkers {
		t.Errorf("backend 3 workers = %d, want the default %d", got, backendWorkers)
	}
	if got := c.Agents[0].Cfg.Interval; got != 20*sim.Millisecond {
		t.Errorf("backend 1 agent interval = %v, want 20ms", got)
	}
	if got := c.Agents[1].Cfg.Interval; got != c.Cfg.Poll {
		t.Errorf("backend 2 agent interval = %v, want the poll default %v", got, c.Cfg.Poll)
	}
	// Backend 2's NIC latency shows in its probes' round trips.
	lat1, lat2 := &metrics.Sample{}, &metrics.Sample{}
	c.Monitor.Probers[1].Latency = lat1
	c.Monitor.Probers[2].Latency = lat2
	c.Run(200 * sim.Millisecond)
	if lat1.Count() == 0 || lat2.Count() == 0 {
		t.Fatalf("probe samples: backend 1 %d, backend 2 %d", lat1.Count(), lat2.Count())
	}
	if d := lat2.Percentile(0) - lat1.Percentile(0); d < 100 {
		t.Errorf("backend 2 fastest probe is %.1fus slower than backend 1's, want >= its 100us NIC latency", d)
	}
}

// TestBackendSpecsSurviveRestart: a crash/restart cycle rebuilds the
// back-end's server and agent from its spec, not the fleet defaults.
func TestBackendSpecsSurviveRestart(t *testing.T) {
	c := New(Config{
		Backends: 2, Scheme: core.RDMASync, Seed: 1,
		BackendSpecs: []BackendSpec{
			{Template: "fast", CPUs: 4, Workers: 16, AgentInterval: 20 * sim.Millisecond},
		},
	})
	c.ApplyFaults(faults.Plan{Crashes: []faults.Crash{
		{Node: 1, At: 100 * sim.Millisecond, RestartAt: 300 * sim.Millisecond},
	}})
	c.Run(sim.Second)
	if got := c.Servers[0].Cfg.Workers; got != 16 {
		t.Errorf("restarted server workers = %d, want 16", got)
	}
	if got := c.Agents[0].Cfg.Interval; got != 20*sim.Millisecond {
		t.Errorf("restarted agent interval = %v, want 20ms", got)
	}
	if got := c.Backends[0].NumCPU(); got != 4 {
		t.Errorf("restarted node CPUs = %d, want 4", got)
	}
	if _, _, ok := c.Monitor.Latest(1); !ok {
		t.Error("no record from the restarted back-end")
	}
}
