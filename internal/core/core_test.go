package core

import (
	"testing"

	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

func TestSchemeStringAndParse(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	variants := map[string]Scheme{
		"rdma-sync":   RDMASync,
		"RDMA_SYNC":   RDMASync,
		"rdmasync":    RDMASync,
		"socketasync": SocketAsync,
		"e-rdma-sync": ERDMASync,
		"eRDMASync":   ERDMASync,
	}
	for in, want := range variants {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme(bogus) should fail")
	}
}

// backendThreads is the number of monitoring tasks each scheme keeps
// on a back-end: the paper's "no extra thread" benefit of RDMA-Sync
// (§4).
var backendThreads = map[Scheme]int{SocketAsync: 2, SocketSync: 1, RDMAAsync: 1, RDMASync: 0, ERDMASync: 0}

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s    Scheme
		rdma bool
	}{
		{SocketAsync, false},
		{SocketSync, false},
		{RDMAAsync, true},
		{RDMASync, true},
		{ERDMASync, true},
	}
	for _, c := range cases {
		if c.s.UsesRDMA() != c.rdma {
			t.Errorf("%v properties wrong", c.s)
		}
	}
	if len(FourSchemes()) != 4 {
		t.Error("FourSchemes should have 4 entries")
	}
}

func TestIndexMonotonicInLoad(t *testing.T) {
	w := DefaultWeights()
	mk := func(util int, run, conns int) wire.LoadRecord {
		r := wire.LoadRecord{NumCPU: 2, MemTotalKB: 1 << 20, MemUsedKB: 100 << 10}
		r.UtilPerMille[0] = uint16(util)
		r.UtilPerMille[1] = uint16(util)
		r.NrRunning = uint16(run)
		r.Conns = uint16(conns)
		return r
	}
	idle := w.Index(mk(0, 0, 0))
	busy := w.Index(mk(900, 8, 30))
	full := w.Index(mk(1000, 16, 64))
	if !(idle < busy && busy < full) {
		t.Fatalf("index not monotone: %v %v %v", idle, busy, full)
	}
}

func TestIndexIRQComponentOnlyForEScheme(t *testing.T) {
	r := wire.LoadRecord{NumCPU: 2}
	r.IrqPendingHard[1] = 6
	plain := WeightsFor(RDMASync).Index(r)
	e := WeightsFor(ERDMASync).Index(r)
	if e <= plain {
		t.Fatalf("e-weights should penalize pending IRQs: %v vs %v", e, plain)
	}
	for _, s := range []Scheme{SocketAsync, SocketSync, RDMAAsync, RDMASync} {
		if WeightsFor(s).IRQ != 0 {
			t.Errorf("%v should not use the IRQ component", s)
		}
	}
}

func TestIndexClamps(t *testing.T) {
	w := DefaultWeights()
	r := wire.LoadRecord{NumCPU: 1, NrRunning: 60000, Conns: 60000}
	r.UtilPerMille[0] = 1000
	v := w.Index(r)
	if v > w.CPU+w.Run+w.Mem+w.Conn+1e-9 {
		t.Fatalf("index %v exceeds weight sum: components not clamped", v)
	}
}

func TestRecordFromSnapshotClamps(t *testing.T) {
	s := simos.Snapshot{NodeID: 3, NumCPU: 2, NrRunning: 1 << 20, Conns: -5}
	r := RecordFromSnapshot(s, 7)
	if r.NrRunning != 0xFFFF {
		t.Errorf("NrRunning should clamp to u16 max, got %d", r.NrRunning)
	}
	if r.Conns != 0 {
		t.Errorf("negative Conns should clamp to 0, got %d", r.Conns)
	}
	if r.Seq != 7 || r.NodeID != 3 {
		t.Error("seq/node not propagated")
	}
}

// --- end-to-end rig ----------------------------------------------------

type rig struct {
	eng     *sim.Engine
	fab     *simnet.Fabric
	front   *simos.Node
	fnic    *simnet.NIC
	backend *simos.Node
	bnic    *simnet.NIC
}

func newRig(seed int64) *rig {
	eng := sim.NewEngine(seed)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	backend := simos.NewNode(eng, 1, simos.NodeDefaults())
	return &rig{
		eng: eng, fab: fab,
		front: front, fnic: fab.Attach(front),
		backend: backend, bnic: fab.Attach(backend),
	}
}

func (r *rig) agent(s Scheme) *Agent {
	return StartAgent(r.backend, r.bnic, AgentConfig{Scheme: s})
}

func TestProbeEndToEndAllSchemes(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			r := newRig(1)
			a := r.agent(s)
			p := StartMonitor(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond).Probers[r.backend.ID]
			p.Latency = &metrics.Sample{}
			r.eng.RunUntil(sim.Second)
			rec, at, ok := p.Latest()
			if !ok {
				t.Fatal("no record received")
			}
			if rec.NodeID != 1 {
				t.Fatalf("record from node %d, want 1", rec.NodeID)
			}
			if rec.NumCPU != 2 {
				t.Fatalf("NumCPU = %d, want 2", rec.NumCPU)
			}
			if at == 0 {
				t.Fatal("no arrival timestamp")
			}
			if p.Errors != 0 {
				t.Fatalf("probe errors: %d", p.Errors)
			}
			if p.Latency.Count() < 50 {
				t.Fatalf("expected ~100 probes in 1s at 10ms poll, got %d", p.Latency.Count())
			}
			if a.BackendTasks() != backendThreads[s] {
				t.Fatalf("backend tasks = %d, want %d", a.BackendTasks(), backendThreads[s])
			}
		})
	}
}

func TestRDMASyncFreshness(t *testing.T) {
	// The record's kernel timestamp must be taken mid-flight (at DMA
	// time), strictly newer than the previous poll and older than
	// arrival.
	r := newRig(2)
	a := r.agent(RDMASync)
	p := StartMonitor(r.front, r.fnic, []*Agent{a}, 20*sim.Millisecond).Probers[r.backend.ID]
	var staleness []sim.Time
	p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
		staleness = append(staleness, at-sim.Time(rec.KTimeNS))
	}
	r.eng.RunUntil(sim.Second)
	if len(staleness) == 0 {
		t.Fatal("no records")
	}
	for _, st := range staleness {
		if st < 0 {
			t.Fatal("record from the future")
		}
		if st > 100*sim.Microsecond {
			t.Fatalf("RDMA-Sync staleness %v, want < one RTT", st)
		}
	}
}

func TestAsyncSchemesAreStale(t *testing.T) {
	for _, s := range []Scheme{SocketAsync, RDMAAsync} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			r := newRig(3)
			a := StartAgent(r.backend, r.bnic, AgentConfig{Scheme: s, Interval: 50 * sim.Millisecond})
			p := StartMonitor(r.front, r.fnic, []*Agent{a}, 7*sim.Millisecond).Probers[r.backend.ID]
			var maxStale sim.Time
			p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
				if st := at - sim.Time(rec.KTimeNS); st > maxStale {
					maxStale = st
				}
			}
			r.eng.RunUntil(2 * sim.Second)
			// With a 50ms refresh and 7ms polling, some probes must
			// observe data tens of ms old.
			if maxStale < 30*sim.Millisecond {
				t.Fatalf("max staleness %v, want >=30ms for an async scheme", maxStale)
			}
			if maxStale > 80*sim.Millisecond {
				t.Fatalf("max staleness %v, absurdly old", maxStale)
			}
		})
	}
}

func TestSocketLatencyGrowsUnderLoadRDMADoesNot(t *testing.T) {
	// Figure 3 in miniature: 12 background compute+comm threads on the
	// back-end inflate socket probe latency but not RDMA latency.
	measure := func(s Scheme, bg int) float64 {
		r := newRig(4)
		a := r.agent(s)
		// Background threads: compute ~1ms then block briefly (they
		// wake boosted, competing with the monitor wakeup).
		for i := 0; i < bg; i++ {
			r.backend.Spawn("bg", func(tk *simos.Task) {
				var loop func()
				loop = func() {
					d := sim.Time(r.eng.Rand().Intn(1000)+500) * sim.Microsecond
					tk.Compute(d, func() {
						tk.Sleep(200*sim.Microsecond, loop)
					})
				}
				loop()
			})
		}
		p := StartMonitor(r.front, r.fnic, []*Agent{a}, 20*sim.Millisecond).Probers[r.backend.ID]
		p.Latency = &metrics.Sample{}
		r.eng.RunUntil(3 * sim.Second)
		return p.Latency.Mean() // microseconds
	}
	sockIdle := measure(SocketSync, 0)
	sockLoaded := measure(SocketSync, 12)
	rdmaIdle := measure(RDMASync, 0)
	rdmaLoaded := measure(RDMASync, 12)
	if sockLoaded < 4*sockIdle {
		t.Fatalf("socket latency should inflate under load: idle=%.1fus loaded=%.1fus",
			sockIdle, sockLoaded)
	}
	if rdmaLoaded > 1.5*rdmaIdle {
		t.Fatalf("RDMA latency should not inflate: idle=%.1fus loaded=%.1fus",
			rdmaIdle, rdmaLoaded)
	}
	if rdmaIdle >= sockIdle {
		t.Fatalf("RDMA (%.1fus) should beat sockets (%.1fus) even idle", rdmaIdle, sockIdle)
	}
}

func TestRDMASyncAccuracyUnderLoad(t *testing.T) {
	// Figure 5a in miniature: with the runnable count changing, the
	// kernel-direct scheme reports the truth at DMA time; the async
	// scheme reports stale counts.
	r := newRig(5)
	aSync := r.agent(RDMASync)
	aAsync := StartAgent(r.backend, r.bnic, AgentConfig{Scheme: RDMAAsync, Interval: 50 * sim.Millisecond})
	// Load: bursts of short-lived tasks changing nr_running.
	r.eng.NewTicker(30*sim.Millisecond, func() {
		n := r.eng.Rand().Intn(6)
		for i := 0; i < n; i++ {
			r.backend.Spawn("burst", func(tk *simos.Task) {
				tk.NoBoost = true
				tk.Compute(sim.Time(r.eng.Rand().Intn(20)+5)*sim.Millisecond, func() {})
			})
		}
	})
	pSync := StartMonitor(r.front, r.fnic, []*Agent{aSync}, 10*sim.Millisecond).Probers[r.backend.ID]
	pAsync := StartMonitor(r.front, r.fnic, []*Agent{aAsync}, 10*sim.Millisecond).Probers[r.backend.ID]
	var devSync, devAsync float64
	var n int
	check := func(p *Prober, dev *float64) {
		p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			truth := float64(r.backend.K.Snapshot().NrRunning)
			d := float64(rec.NrRunning) - truth
			if d < 0 {
				d = -d
			}
			*dev += d
			n++
		}
	}
	check(pSync, &devSync)
	check(pAsync, &devAsync)
	r.eng.RunUntil(5 * sim.Second)
	if n == 0 {
		t.Fatal("no observations")
	}
	if devSync > devAsync/2 {
		t.Fatalf("RDMA-Sync deviation (%v) should be far below RDMA-Async (%v)",
			devSync, devAsync)
	}
}

func TestMonitorLatestAndStop(t *testing.T) {
	eng := sim.NewEngine(6)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front := simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic := fab.Attach(front)
	var agents []*Agent
	for i := 1; i <= 3; i++ {
		nd := simos.NewNode(eng, i, simos.NodeDefaults())
		nic := fab.Attach(nd)
		agents = append(agents, StartAgent(nd, nic, AgentConfig{Scheme: RDMASync}))
	}
	m := StartMonitor(front, fnic, agents, 10*sim.Millisecond)
	m.Probers[1].Latency = &metrics.Sample{}
	eng.RunUntil(200 * sim.Millisecond)
	if len(m.Backends()) != 3 {
		t.Fatalf("backends = %v", m.Backends())
	}
	for _, b := range m.Backends() {
		rec, _, ok := m.Latest(b)
		if !ok || int(rec.NodeID) != b {
			t.Fatalf("Latest(%d) = %+v, ok=%v", b, rec, ok)
		}
	}
	if _, _, ok := m.Latest(99); ok {
		t.Fatal("Latest of unknown backend should be !ok")
	}
	m.Stop()
	probesAtStop := m.Probers[1].Latency.Count()
	eng.RunUntil(sim.Second)
	if m.Probers[1].Latency.Count() > probesAtStop+1 {
		t.Fatal("probing continued after Stop")
	}
}

func TestProbeErrorAfterAgentStop(t *testing.T) {
	r := newRig(7)
	a := r.agent(RDMASync)
	p := StartMonitor(r.front, r.fnic, []*Agent{a}, 10*sim.Millisecond).Probers[r.backend.ID]
	r.eng.RunUntil(100 * sim.Millisecond)
	a.Stop() // deregisters the MR
	r.eng.RunUntil(300 * sim.Millisecond)
	if p.Errors == 0 {
		t.Fatal("probes after deregistration should error")
	}
}

func TestAgentStopKillsBackendTasks(t *testing.T) {
	r := newRig(9)
	a := r.agent(SocketAsync)
	r.eng.RunUntil(100 * sim.Millisecond)
	if a.BackendTasks() != 2 {
		t.Fatalf("BackendTasks = %d, want 2", a.BackendTasks())
	}
	a.Stop()
	r.eng.RunUntil(500 * sim.Millisecond)
	if a.BackendTasks() != 0 {
		t.Fatalf("BackendTasks = %d after Stop, want 0", a.BackendTasks())
	}
}
