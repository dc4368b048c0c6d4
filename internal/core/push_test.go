package core

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

func TestPushDeliversRecords(t *testing.T) {
	r := newRig(21)
	mon := StartPushMonitor(r.fab, r.front, PushGroup)
	agent := StartPushAgent(r.backend, r.bnic, PushGroup, 20*sim.Millisecond)
	r.eng.RunUntil(sim.Second)
	rec, at, ok := mon.Latest(1)
	if !ok {
		t.Fatal("no pushed record")
	}
	if rec.NodeID != 1 || at == 0 {
		t.Fatalf("record %+v at %v", rec, at)
	}
	if agent.Published < 40 {
		t.Fatalf("published = %d, want ~50", agent.Published)
	}
	received, torn := mon.Stats()
	if received < 40 {
		t.Fatalf("received = %d", received)
	}
	if torn != 0 {
		t.Fatalf("torn records: %d", torn)
	}
}

func TestPushStalenessBoundedByInterval(t *testing.T) {
	r := newRig(22)
	mon := StartPushMonitor(r.fab, r.front, PushGroup)
	StartPushAgent(r.backend, r.bnic, PushGroup, 20*sim.Millisecond)
	r.eng.RunUntil(sim.Second)
	_, at, ok := mon.Latest(1)
	if !ok {
		t.Fatal("no record")
	}
	if age := r.eng.Now() - at; age > 30*sim.Millisecond {
		t.Fatalf("pushed record age %v, want < interval + slack", age)
	}
}

func TestPushUsesBackendCPU(t *testing.T) {
	// Unlike RDMA-Sync, push keeps a back-end process that consumes
	// CPU and generates TX traffic.
	r := newRig(23)
	StartPushMonitor(r.fab, r.front, PushGroup)
	a := StartPushAgent(r.backend, r.bnic, PushGroup, 5*sim.Millisecond)
	r.eng.RunUntil(sim.Second)
	if r.backend.K.NetTxBytes == 0 {
		t.Fatal("push agent should transmit")
	}
	if a.Published == 0 {
		t.Fatal("push agent published nothing")
	}
}

func TestPushMonitorUnknownBackend(t *testing.T) {
	r := newRig(24)
	mon := StartPushMonitor(r.fab, r.front, PushGroup)
	if _, _, ok := mon.Latest(99); ok {
		t.Fatal("unknown backend should be !ok")
	}
}

func TestPushMultipleBackends(t *testing.T) {
	eng := sim.NewEngine(25)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fab.Attach(front)
	mon := StartPushMonitor(fab, front, PushGroup)
	for i := 1; i <= 3; i++ {
		n := simos.NewNode(eng, i, simos.NodeDefaults())
		nic := fab.Attach(n)
		StartPushAgent(n, nic, PushGroup, 25*sim.Millisecond)
	}
	eng.RunUntil(sim.Second)
	for i := 1; i <= 3; i++ {
		if rec, _, ok := mon.Latest(i); !ok || int(rec.NodeID) != i {
			t.Fatalf("backend %d missing from push monitor", i)
		}
	}
}
