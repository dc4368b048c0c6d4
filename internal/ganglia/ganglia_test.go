package ganglia

import (
	"testing"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

type rig struct {
	eng   *sim.Engine
	fab   *simnet.Fabric
	nodes []*simos.Node
	nics  []*simnet.NIC
}

func newRig(n int) *rig {
	eng := sim.NewEngine(1)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	r := &rig{eng: eng, fab: fab}
	for i := 0; i < n; i++ {
		nd := simos.NewNode(eng, i, simos.NodeDefaults())
		r.nodes = append(r.nodes, nd)
		r.nics = append(r.nics, fab.Attach(nd))
	}
	return r
}

func TestDeployAndGossip(t *testing.T) {
	r := newRig(4)
	cfg := Defaults()
	cfg.Interval = 100 * sim.Millisecond
	s := Deploy(r.fab, r.nodes, r.nics, cfg)
	r.eng.RunUntil(2 * sim.Second)
	if len(s.Gmonds) != 4 {
		t.Fatalf("gmonds = %d", len(s.Gmonds))
	}
	for i, g := range s.Gmonds {
		if g.Rounds < 15 {
			t.Fatalf("gmond %d rounds = %d, want ~20", i, g.Rounds)
		}
		// Each gmond hears from 3 peers per interval.
		if g.Received < 40 {
			t.Fatalf("gmond %d received = %d, want ~60", i, g.Received)
		}
	}
}

func TestGmetricPublishFansOut(t *testing.T) {
	r := newRig(3)
	cfg := Defaults()
	cfg.Interval = 10 * sim.Second // silence gmond's own traffic
	s := Deploy(r.fab, r.nodes, r.nics, cfg)
	for i := 0; i < 5; i++ {
		s.Gmetric.Publish(i)
	}
	r.eng.RunUntil(sim.Second)
	if s.Gmetric.Published != 5 {
		t.Fatalf("published = %d, want 5", s.Gmetric.Published)
	}
	// The two peers should have received the 5 publications each.
	for _, g := range s.Gmonds[1:] {
		if g.Received < 5 {
			t.Fatalf("peer received %d, want >=5", g.Received)
		}
	}
}

func TestWireFineGrainedPublishesRecords(t *testing.T) {
	r := newRig(3)
	cfg := Defaults()
	cfg.Interval = 10 * sim.Second
	s := Deploy(r.fab, r.nodes, r.nics, cfg)
	agent := core.StartAgent(r.nodes[1], r.nics[1], core.AgentConfig{Scheme: core.RDMASync})
	mon := core.StartMonitor(r.nodes[0], r.nics[0], []*core.Agent{agent}, 20*sim.Millisecond)
	s.WireFineGrained(mon)
	r.eng.RunUntil(sim.Second)
	// Probes land every 20ms but publication is decimated to the
	// configured 50ms minimum interval: ~20 publications in 1s.
	if s.Gmetric.Published < 15 || s.Gmetric.Published > 25 {
		t.Fatalf("published = %d, want ~20 (rate-limited)", s.Gmetric.Published)
	}
}

func TestWireFineGrainedDecimation(t *testing.T) {
	r := newRig(3)
	cfg := Defaults()
	cfg.Interval = 10 * sim.Second
	cfg.PublishMinInterval = sim.Millisecond // effectively unthrottled
	s := Deploy(r.fab, r.nodes, r.nics, cfg)
	agent := core.StartAgent(r.nodes[1], r.nics[1], core.AgentConfig{Scheme: core.RDMASync})
	mon := core.StartMonitor(r.nodes[0], r.nics[0], []*core.Agent{agent}, 20*sim.Millisecond)
	s.WireFineGrained(mon)
	r.eng.RunUntil(sim.Second)
	if s.Gmetric.Published < 40 {
		t.Fatalf("published = %d, want ~50 (one per probe when unthrottled)", s.Gmetric.Published)
	}
}

func TestWireStatusPublishesChangesOnly(t *testing.T) {
	r := newRig(4)
	cfg := Defaults()
	cfg.Interval = 10 * sim.Second // silence gmond's own traffic
	s := Deploy(r.fab, r.nodes, r.nics, cfg)
	agents := []*core.Agent{
		core.StartAgent(r.nodes[1], r.nics[1], core.AgentConfig{Scheme: core.RDMASync}),
		core.StartAgent(r.nodes[2], r.nics[2], core.AgentConfig{Scheme: core.RDMASync}),
	}
	mon := core.StartMonitor(r.nodes[0], r.nics[0], agents, 20*sim.Millisecond)
	s.WireStatus(mon, 20*sim.Millisecond)
	r.eng.RunUntil(sim.Second)
	// One publication per back-end at start-up, then silence: the
	// cluster is stable, so every later scan finds nothing changed.
	if s.Gmetric.Published != 2 {
		t.Fatalf("published = %d, want 2 (one per back-end, change-driven)", s.Gmetric.Published)
	}
	// A transport change is one more publication. Stop the monitor so
	// the next probe does not flap the transport straight back.
	mon.Stop()
	mon.Probers[r.nodes[1].ID].LastTransport = core.TransportSocket
	r.eng.RunUntil(2 * sim.Second)
	if s.Gmetric.Published != 3 {
		t.Fatalf("published = %d, want 3 after one transport change", s.Gmetric.Published)
	}
}

func TestDeployValidation(t *testing.T) {
	r := newRig(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched nodes/nics should panic")
		}
	}()
	Deploy(r.fab, r.nodes, r.nics[:1], Defaults())
}
