package httpsim

import (
	"testing"

	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

type rig struct {
	eng   *sim.Engine
	fab   *simnet.Fabric
	front *simos.Node
	fnic  *simnet.NIC
	back  []*simos.Node
	bnic  []*simnet.NIC
}

func newRig(nBack int) *rig {
	eng := sim.NewEngine(1)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	r := &rig{eng: eng, fab: fab}
	r.front = simos.NewNode(eng, 0, simos.NodeDefaults())
	r.fnic = fab.Attach(r.front)
	for i := 1; i <= nBack; i++ {
		n := simos.NewNode(eng, i, simos.NodeDefaults())
		r.back = append(r.back, n)
		r.bnic = append(r.bnic, fab.Attach(n))
	}
	return r
}

func TestServerServesRequestEndToEnd(t *testing.T) {
	r := newRig(1)
	srv := StartServer(r.back[0], r.bnic[0], ServerDefaults())
	var reply Reply
	var when sim.Time
	r.fab.RegisterExternal(-1, func(m simos.Message) {
		reply = m.Payload.(Reply)
		when = r.eng.Now()
	})
	req := Request{
		ID: 1, Class: "Home", CPU: 2 * sim.Millisecond,
		Size: 300, Resp: 4096, Client: -1, Issued: 0,
	}
	r.fab.Inject(-1, 1, ServerPort, req.Size, req)
	r.eng.RunUntil(sim.Second)
	if reply.ID != 1 || reply.Class != "Home" || reply.Backend != 1 {
		t.Fatalf("reply = %+v", reply)
	}
	// Response time ~ service demand + wire overheads, well under 4ms.
	if when < 2*sim.Millisecond || when > 4*sim.Millisecond {
		t.Fatalf("served at %v, want ~2-4ms", when)
	}
	if srv.Served() != 1 {
		t.Fatalf("Served = %d", srv.Served())
	}
}

func TestServerIOWaitReleasesCPU(t *testing.T) {
	// Two requests with long IO waits on a 2-worker server should
	// overlap their IO: total time ~ CPU+IO, not 2*(CPU+IO).
	r := newRig(1)
	StartServer(r.back[0], r.bnic[0], ServerConfig{Workers: 2})
	done := 0
	var last sim.Time
	r.fab.RegisterExternal(-1, func(m simos.Message) {
		done++
		last = r.eng.Now()
	})
	for i := 0; i < 2; i++ {
		req := Request{
			ID: uint64(i), CPU: sim.Millisecond, IOWait: 20 * sim.Millisecond,
			Size: 300, Resp: 1024, Client: -1,
		}
		r.fab.Inject(-1, 1, ServerPort, req.Size, req)
	}
	r.eng.RunUntil(sim.Second)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if last > 30*sim.Millisecond {
		t.Fatalf("IO did not overlap: finished at %v", last)
	}
}

func TestServerQueuesBeyondWorkers(t *testing.T) {
	r := newRig(1)
	srv := StartServer(r.back[0], r.bnic[0], ServerConfig{Workers: 2})
	for i := 0; i < 6; i++ {
		req := Request{ID: uint64(i), CPU: 50 * sim.Millisecond, Size: 300, Resp: 512, Client: -1}
		r.fab.Inject(-1, 1, ServerPort, req.Size, req)
	}
	r.fab.RegisterExternal(-1, func(simos.Message) {})
	r.eng.RunUntil(30 * sim.Millisecond)
	if srv.busy != 2 {
		t.Fatalf("busy = %d, want 2 (pool size)", srv.busy)
	}
	if srv.port.QueueLen() == 0 {
		t.Fatal("excess requests should queue")
	}
	// Connection load (queue + busy) must be visible to the kernel
	// stats for the monitoring schemes.
	if got := r.back[0].K.Conns(); got != srv.busy+srv.port.QueueLen() {
		t.Fatalf("kernel conns = %d, want %d", got, srv.busy+srv.port.QueueLen())
	}
	r.eng.RunUntil(sim.Second)
	if srv.Served() != 6 {
		t.Fatalf("served = %d, want all 6", srv.Served())
	}
	if r.back[0].K.Conns() != 0 {
		t.Fatal("conns should drain to 0")
	}
}

func TestServerMemoryAccounting(t *testing.T) {
	r := newRig(1)
	base := r.back[0].K.Snapshot().MemUsedKB
	StartServer(r.back[0], r.bnic[0], ServerConfig{Workers: 4, MemPerKB: 1024})
	r.fab.RegisterExternal(-1, func(simos.Message) {})
	for i := 0; i < 3; i++ {
		req := Request{ID: uint64(i), CPU: 20 * sim.Millisecond, Size: 300, Resp: 512, Client: -1}
		r.fab.Inject(-1, 1, ServerPort, req.Size, req)
	}
	r.eng.RunUntil(10 * sim.Millisecond)
	if got := r.back[0].K.Snapshot().MemUsedKB; got != base+3*1024 {
		t.Fatalf("mem during service = %d, want base+3072", got)
	}
	r.eng.RunUntil(sim.Second)
	if got := r.back[0].K.Snapshot().MemUsedKB; got != base {
		t.Fatalf("mem after drain = %d, want %d", got, base)
	}
}

func TestDispatcherRoutesViaPolicy(t *testing.T) {
	r := newRig(2)
	for i := range r.back {
		StartServer(r.back[i], r.bnic[i], ServerDefaults())
	}
	rr := &loadbalance.RoundRobin{Backends: []int{1, 2}}
	d := StartDispatcher(r.front, r.fnic, rr)
	replies := 0
	r.fab.RegisterExternal(-1, func(simos.Message) { replies++ })
	for i := 0; i < 10; i++ {
		req := Request{ID: uint64(i), CPU: sim.Millisecond, Size: 300, Resp: 512, Client: -1}
		r.fab.Inject(-1, 0, DispatchPort, req.Size, req)
	}
	r.eng.RunUntil(sim.Second)
	if replies != 10 {
		t.Fatalf("replies = %d, want 10", replies)
	}
	if d.Routed != 10 {
		t.Fatalf("routed = %d", d.Routed)
	}
	if d.ByNode[1] != 5 || d.ByNode[2] != 5 {
		t.Fatalf("round-robin split = %v, want 5/5", d.ByNode)
	}
}

func TestServerIgnoresGarbagePayload(t *testing.T) {
	r := newRig(1)
	srv := StartServer(r.back[0], r.bnic[0], ServerDefaults())
	r.fab.Inject(-1, 1, ServerPort, 100, "not-a-request")
	r.fab.RegisterExternal(-1, func(simos.Message) {})
	req := Request{ID: 5, CPU: sim.Millisecond, Size: 300, Resp: 512, Client: -1}
	r.fab.Inject(-1, 1, ServerPort, req.Size, req)
	r.eng.RunUntil(sim.Second)
	if srv.Served() != 1 {
		t.Fatalf("served = %d, want 1 (garbage skipped)", srv.Served())
	}
}

func TestLocalFracDecays(t *testing.T) {
	r := newRig(2)
	for i := range r.back {
		StartServer(r.back[i], r.bnic[i], ServerDefaults())
	}
	d := StartDispatcher(r.front, r.fnic, &loadbalance.RoundRobin{Backends: []int{1, 2}})
	r.fab.RegisterExternal(-1, func(simos.Message) {})
	for i := 0; i < 20; i++ {
		req := Request{ID: uint64(i), CPU: sim.Millisecond, Size: 300, Resp: 512, Client: -1}
		r.fab.Inject(-1, 0, DispatchPort, req.Size, req)
	}
	r.eng.RunUntil(100 * sim.Millisecond)
	f1 := d.LocalFrac(1)
	if f1 < 0.4 || f1 > 0.6 {
		t.Fatalf("round-robin LocalFrac = %v, want ~0.5", f1)
	}
	// After several decay constants with no traffic, counts vanish.
	r.eng.RunUntil(2 * sim.Second)
	if d.LocalFrac(1) != 0 {
		t.Fatalf("LocalFrac after idle = %v, want 0", d.LocalFrac(1))
	}
}

func TestAdmissionRejectPath(t *testing.T) {
	r := newRig(1)
	StartServer(r.back[0], r.bnic[0], ServerDefaults())
	d := StartDispatcher(r.front, r.fnic, &loadbalance.RoundRobin{Backends: []int{1}})
	d.Admission = func() bool { return false }
	var rejected bool
	r.fab.RegisterExternal(-1, func(m simos.Message) {
		if rep, ok := m.Payload.(Reply); ok && rep.Rejected {
			rejected = true
		}
	})
	req := Request{ID: 1, CPU: sim.Millisecond, Size: 300, Resp: 512, Client: -1}
	r.fab.Inject(-1, 0, DispatchPort, req.Size, req)
	r.eng.RunUntil(sim.Second)
	if !rejected {
		t.Fatal("client never saw the rejection")
	}
	if d.Routed != 0 {
		t.Fatal("rejected request must not be routed")
	}
}
