package simnet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

func lightNodeCfg() simos.Config {
	cfg := simos.NodeDefaults()
	cfg.CtxSwitchCost = -1
	cfg.WakeCost = -1
	cfg.RecvCost = -1
	cfg.TimerIRQCost = -1
	return cfg
}

type rig struct {
	eng   *sim.Engine
	fab   *Fabric
	nodes []*simos.Node
	nics  []*NIC
}

func newRig(t testing.TB, n int, fcfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(1)}
	r.fab = NewFabric(r.eng, fcfg)
	for i := 0; i < n; i++ {
		nd := simos.NewNode(r.eng, i, lightNodeCfg())
		r.nodes = append(r.nodes, nd)
		r.nics = append(r.nics, r.fab.Attach(nd))
	}
	return r
}

func TestSendDeliversAcrossNodes(t *testing.T) {
	r := newRig(t, 2, Defaults())
	p := r.nodes[1].Port("svc")
	var got simos.Message
	var when sim.Time
	r.nodes[1].Spawn("rx", func(tk *simos.Task) {
		tk.Recv(p, func(m simos.Message) {
			got = m
			when = r.eng.Now()
		})
	})
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Send(tk, 1, "svc", 64, "ping", nil)
	})
	r.eng.RunUntil(sim.Second)
	if got.Payload != "ping" || got.From != 0 {
		t.Fatalf("got %+v", got)
	}
	// Cost chain: TX kernel (15us) + wire (5us + 64B ser) + RX IRQ
	// (3+12us) before delivery.
	if when < 30*sim.Microsecond {
		t.Fatalf("delivered at %v, too fast for the sockets path", when)
	}
	if when > 200*sim.Microsecond {
		t.Fatalf("delivered at %v, too slow on an idle node", when)
	}
	if r.nodes[1].K.NetRxBytes != 64 || r.nodes[0].K.NetTxBytes != 64 {
		t.Fatalf("net accounting rx=%d tx=%d, want 64/64",
			r.nodes[1].K.NetRxBytes, r.nodes[0].K.NetTxBytes)
	}
}

func TestSendRaisesReceiverIRQ(t *testing.T) {
	r := newRig(t, 2, Defaults())
	r.nodes[1].Port("svc")
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Send(tk, 1, "svc", 64, 1, nil)
	})
	r.eng.RunUntil(sim.Second)
	irqCPU := r.nodes[1].Cfg.NetIRQCPU
	if r.nodes[1].K.CumIRQHard[irqCPU] == 0 {
		t.Fatal("sockets receive should interrupt the target")
	}
}

func TestRDMAReadNoTargetCPUInvolvement(t *testing.T) {
	r := newRig(t, 2, Defaults())
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	mr := r.nics[1].RegisterMR(StaticSource(payload), len(payload))
	var got []byte
	var when sim.Time
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 1, mr.Key(), len(payload), func(data []byte, err error) {
			if err != nil {
				t.Errorf("RDMARead error: %v", err)
			}
			got = data
			when = r.eng.Now()
		})
	})
	r.eng.RunUntil(sim.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("data = %v, want %v", got, payload)
	}
	// RTT: post(1us) + wire(~5us) + NIC(2us) + wire back — tens of us.
	if when > 50*sim.Microsecond {
		t.Fatalf("RDMA read took %v, want < 50us", when)
	}
	// The defining property: zero interrupts, zero context switches
	// attributable to the read on the target.
	for c := 0; c < 2; c++ {
		if r.nodes[1].K.CumIRQHard[c] != 0 {
			t.Fatalf("target CPU%d saw %d IRQs from an RDMA read, want 0",
				c, r.nodes[1].K.CumIRQHard[c])
		}
	}
	if r.nics[1].node.K.CtxSwitches != 0 {
		t.Fatalf("target did %d context switches, want 0", r.nics[1].node.K.CtxSwitches)
	}
}

func TestRDMAReadSeesValueAtDMAInstant(t *testing.T) {
	r := newRig(t, 2, Defaults())
	// Region whose source reads a live counter: like RDMA-Sync reading
	// kernel memory, the value must be the one at DMA time, not at
	// post time or completion time.
	counter := uint64(0)
	r.eng.NewTicker(sim.Microsecond, func() { counter++ })
	mr := r.nics[1].RegisterMR(func() []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], counter)
		return b[:]
	}, 8)
	var sawAt uint64
	var doneAt sim.Time
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 1, mr.Key(), 8, func(data []byte, err error) {
			sawAt = binary.LittleEndian.Uint64(data)
			doneAt = r.eng.Now()
		})
	})
	r.eng.RunUntil(100 * sim.Microsecond)
	if sawAt == 0 {
		t.Fatal("read value from before the clock started")
	}
	// The value must be strictly older than completion (one-way delay
	// remains) but newer than post time + request propagation.
	completionTicks := uint64(doneAt / sim.Microsecond)
	if sawAt >= completionTicks {
		t.Fatalf("value %d not older than completion %d", sawAt, completionTicks)
	}
	if completionTicks-sawAt > 20 {
		t.Fatalf("value %d too stale vs completion %d", sawAt, completionTicks)
	}
}

func TestRDMAReadBadKey(t *testing.T) {
	r := newRig(t, 2, Defaults())
	var gotErr error
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 1, 999, 8, func(_ []byte, err error) { gotErr = err })
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != ErrBadKey {
		t.Fatalf("err = %v, want ErrBadKey", gotErr)
	}
	if r.nics[0].RDMAErrors != 1 {
		t.Fatalf("RDMAErrors = %d, want 1", r.nics[0].RDMAErrors)
	}
}

func TestRDMAReadNoRoute(t *testing.T) {
	r := newRig(t, 1, Defaults())
	var gotErr error
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 42, 1, 8, func(_ []byte, err error) { gotErr = err })
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", gotErr)
	}
}

func TestRDMAReadBeyondBounds(t *testing.T) {
	r := newRig(t, 2, Defaults())
	mr := r.nics[1].RegisterMR(StaticSource(make([]byte, 16)), 16)
	var gotErr error
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 1, mr.Key(), 64, func(_ []byte, err error) { gotErr = err })
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != ErrLength {
		t.Fatalf("err = %v, want ErrLength", gotErr)
	}
}

func TestRDMAWriteToReadOnlyRegionDenied(t *testing.T) {
	r := newRig(t, 2, Defaults())
	mr := r.nics[1].RegisterMR(StaticSource(make([]byte, 16)), 16)
	var gotErr error
	r.nodes[0].Spawn("w", func(tk *simos.Task) {
		r.nics[0].RDMAWrite(tk, 1, mr.Key(), []byte{1, 2, 3}, func(err error) { gotErr = err })
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != ErrPermission {
		t.Fatalf("err = %v, want ErrPermission (read-only kernel region)", gotErr)
	}
}

func TestRDMAWriteToWritableRegion(t *testing.T) {
	r := newRig(t, 2, Defaults())
	var sunk []byte
	mr := r.nics[1].RegisterWritableMR(StaticSource(make([]byte, 16)), 16, func(b []byte) { sunk = b })
	var gotErr error
	r.nodes[0].Spawn("w", func(tk *simos.Task) {
		r.nics[0].RDMAWrite(tk, 1, mr.Key(), []byte{9, 8, 7}, func(err error) { gotErr = err })
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != nil {
		t.Fatalf("err = %v, want nil", gotErr)
	}
	if !bytes.Equal(sunk, []byte{9, 8, 7}) {
		t.Fatalf("sink got %v", sunk)
	}
}

func TestDeregisterInvalidatesKey(t *testing.T) {
	r := newRig(t, 2, Defaults())
	mr := r.nics[1].RegisterMR(StaticSource(make([]byte, 8)), 8)
	r.nics[1].Deregister(mr)
	var gotErr error
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 1, mr.Key(), 8, func(_ []byte, err error) { gotErr = err })
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != ErrBadKey {
		t.Fatalf("err = %v, want ErrBadKey after deregister", gotErr)
	}
}

func TestRDMALatencyImmuneToTargetLoad(t *testing.T) {
	measure := func(bgThreads int) sim.Time {
		r := newRig(t, 2, Defaults())
		mr := r.nics[1].RegisterMR(StaticSource(make([]byte, 128)), 128)
		for i := 0; i < bgThreads; i++ {
			r.nodes[1].Spawn("hog", func(tk *simos.Task) {
				tk.NoBoost = true
				tk.Compute(10*sim.Second, func() {})
			})
		}
		var rtt sim.Time
		r.nodes[0].Spawn("probe", func(tk *simos.Task) {
			start := r.eng.Now()
			r.nics[0].RDMARead(tk, 1, mr.Key(), 128, func(_ []byte, err error) {
				rtt = r.eng.Now() - start
			})
		})
		r.eng.RunUntil(sim.Second)
		return rtt
	}
	idle, loaded := measure(0), measure(16)
	if loaded > idle+sim.Microsecond {
		t.Fatalf("RDMA rtt grew under load: idle=%v loaded=%v", idle, loaded)
	}
}

func TestExternalInjectAndSink(t *testing.T) {
	r := newRig(t, 1, Defaults())
	p := r.nodes[0].Port("http")
	var reply simos.Message
	r.fab.RegisterExternal(-1, func(m simos.Message) { reply = m })
	r.nodes[0].Spawn("srv", func(tk *simos.Task) {
		tk.Recv(p, func(m simos.Message) {
			tk.Compute(100*sim.Microsecond, func() {
				r.nics[0].Send(tk, m.From, "", 200, "resp", nil)
			})
		})
	})
	r.fab.Inject(-1, 0, "http", 300, "req")
	r.eng.RunUntil(sim.Second)
	if reply.Payload != "resp" {
		t.Fatalf("client sink got %+v", reply)
	}
	if r.nodes[0].K.NetRxBytes != 300 {
		t.Fatalf("server accounted rx=%d, want 300", r.nodes[0].K.NetRxBytes)
	}
}

func TestMulticastReachesGroup(t *testing.T) {
	r := newRig(t, 4, Defaults())
	got := map[int]bool{}
	for i := 1; i < 4; i++ {
		i := i
		r.fab.JoinGroup("mon", i, "gmon")
		p := r.nodes[i].Port("gmon")
		r.nodes[i].Spawn("rx", func(tk *simos.Task) {
			tk.Recv(p, func(m simos.Message) { got[i] = true })
		})
	}
	r.fab.JoinGroup("mon", 0, "gmon") // sender is a member too; must not self-deliver
	r.nodes[0].Port("gmon")
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Multicast(tk, "mon", 100, "hello", nil)
	})
	r.eng.RunUntil(sim.Second)
	if len(got) != 3 {
		t.Fatalf("multicast reached %d members, want 3", len(got))
	}
}

func TestAblationRDMATargetIRQ(t *testing.T) {
	r := newRig(t, 2, Defaults())
	r.fab.AblationRDMATargetIRQ = true
	mr := r.nics[1].RegisterMR(StaticSource(make([]byte, 8)), 8)
	r.nodes[0].Spawn("probe", func(tk *simos.Task) {
		r.nics[0].RDMARead(tk, 1, mr.Key(), 8, func([]byte, error) {})
	})
	r.eng.RunUntil(sim.Second)
	irqCPU := r.nodes[1].Cfg.NetIRQCPU
	if r.nodes[1].K.CumIRQHard[irqCPU] == 0 {
		t.Fatal("ablation should charge an IRQ on the target")
	}
}

func TestAttachDuplicatePanics(t *testing.T) {
	r := newRig(t, 1, Defaults())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach should panic")
		}
	}()
	r.fab.Attach(r.nodes[0])
}

func TestXmitScalesWithSize(t *testing.T) {
	f := NewFabric(sim.NewEngine(1), Defaults())
	small, big := f.xmit(64), f.xmit(1<<20)
	if big <= small {
		t.Fatal("larger payloads must take longer")
	}
	// 1 MB at 8 Gb/s = ~1 ms serialization.
	if big < 900*sim.Microsecond || big > 1200*sim.Microsecond {
		t.Fatalf("1MB xmit = %v, want ~1ms", big)
	}
}

func TestSockDropAndRTO(t *testing.T) {
	cfg := Defaults()
	cfg.SockDropMax = 1.0 // always drop when over threshold
	cfg.SockDropPer = 1.0
	cfg.SockDropThresh = 1
	cfg.RTO = 50 * sim.Millisecond
	r := newRig(t, 2, cfg)
	// Distress the receiver: conns above threshold.
	r.nodes[1].K.AddConns(10)
	p := r.nodes[1].Port("svc")
	var gotAt sim.Time
	r.nodes[1].Spawn("rx", func(tk *simos.Task) {
		tk.Recv(p, func(m simos.Message) { gotAt = r.eng.Now() })
	})
	// Relieve the distress before the first retransmission lands.
	r.eng.Schedule(20*sim.Millisecond, func() { r.nodes[1].K.AddConns(-10) })
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Send(tk, 1, "svc", 64, "ping", nil)
	})
	r.eng.RunUntil(sim.Second)
	if gotAt == 0 {
		t.Fatal("message never delivered after retransmission")
	}
	if gotAt < 50*sim.Millisecond {
		t.Fatalf("delivered at %v, should have waited out an RTO", gotAt)
	}
	if r.nics[1].SockDrops == 0 {
		t.Fatal("drop not accounted")
	}
}

func TestEstablishedPortImmuneToDrops(t *testing.T) {
	cfg := Defaults()
	cfg.SockDropMax = 1.0
	cfg.SockDropPer = 1.0
	cfg.SockDropThresh = 1
	r := newRig(t, 2, cfg)
	r.fab.MarkEstablished("svc")
	r.nodes[1].K.AddConns(10) // permanently distressed
	p := r.nodes[1].Port("svc")
	var gotAt sim.Time
	r.nodes[1].Spawn("rx", func(tk *simos.Task) {
		tk.Recv(p, func(m simos.Message) { gotAt = r.eng.Now() })
	})
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Send(tk, 1, "svc", 64, "ping", nil)
	})
	r.eng.RunUntil(sim.Second)
	if gotAt == 0 || gotAt > 10*sim.Millisecond {
		t.Fatalf("established-port delivery at %v, want immediate", gotAt)
	}
	if r.nics[1].SockDrops != 0 {
		t.Fatal("established port should never drop")
	}
}

func TestDropGivesUpAfterMaxRetries(t *testing.T) {
	cfg := Defaults()
	cfg.SockDropMax = 1.0
	cfg.SockDropPer = 1.0
	cfg.SockDropThresh = 1
	cfg.RTO = 10 * sim.Millisecond
	cfg.MaxRetries = 2
	r := newRig(t, 2, cfg)
	r.nodes[1].K.AddConns(10) // permanently distressed
	p := r.nodes[1].Port("svc")
	delivered := false
	r.nodes[1].Spawn("rx", func(tk *simos.Task) {
		tk.Recv(p, func(simos.Message) { delivered = true })
	})
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Send(tk, 1, "svc", 64, "ping", nil)
	})
	r.eng.RunUntil(sim.Second)
	// After MaxRetries the message is forced through (TCP would keep
	// trying; the cap models eventual success, not loss).
	if !delivered {
		t.Fatal("message should eventually deliver at the retry cap")
	}
	if r.nics[1].SockDrops != 2 {
		t.Fatalf("drops = %d, want exactly MaxRetries", r.nics[1].SockDrops)
	}
}

func TestLargeSendRaisesAckInterrupts(t *testing.T) {
	r := newRig(t, 2, Defaults())
	r.nodes[1].Port("sink")
	size := 256 << 10 // 256 KB -> 64 ACK interrupts at 4KB spacing
	r.nodes[0].Spawn("tx", func(tk *simos.Task) {
		r.nics[0].Send(tk, 1, "sink", size, nil, nil)
	})
	r.eng.RunUntil(sim.Second)
	irqCPU := r.nodes[0].Cfg.NetIRQCPU
	acks := r.nodes[0].K.CumIRQHard[irqCPU]
	want := uint64(size / r.fab.Cfg.AckEvery)
	if acks != want {
		t.Fatalf("sender ACK interrupts = %d, want %d", acks, want)
	}
}

func TestSendTxCPUScalesWithSize(t *testing.T) {
	measure := func(size int) sim.Time {
		r := newRig(t, 2, Defaults())
		r.nodes[1].Port("sink")
		var done sim.Time
		r.nodes[0].Spawn("tx", func(tk *simos.Task) {
			r.nics[0].Send(tk, 1, "sink", size, nil, func() { done = r.eng.Now() })
		})
		r.eng.RunUntil(sim.Second)
		return done
	}
	small, big := measure(1<<10), measure(1<<20)
	if big <= small {
		t.Fatal("larger sends must cost more sender CPU")
	}
	// 1 MB at 500 MB/s -> ~2ms of kernel time.
	if big < 1500*sim.Microsecond || big > 4*sim.Millisecond {
		t.Fatalf("1MB TX completion at %v, want ~2ms", big)
	}
}

func TestRDMACompareSwapAppliesAndFences(t *testing.T) {
	r := newRig(t, 3, Defaults())
	word := make([]byte, 8)
	mr := r.nics[2].RegisterWritableMR(StaticSource(word), len(word), func(b []byte) { copy(word, b) })

	// Node 0 swaps 0 -> 7; node 1 then tries the same 0 -> 9 swap and
	// must lose, observing 7.
	var prev0, prev1 uint64
	r.nodes[0].Spawn("cas0", func(tk *simos.Task) {
		r.nics[0].RDMACompareSwap(tk, 2, mr.Key(), 0, 7, func(prev uint64, err error) {
			if err != nil {
				t.Errorf("cas0: %v", err)
			}
			prev0 = prev
		})
	})
	r.eng.RunUntil(sim.Second)
	r.nodes[1].Spawn("cas1", func(tk *simos.Task) {
		r.nics[1].RDMACompareSwap(tk, 2, mr.Key(), 0, 9, func(prev uint64, err error) {
			if err != nil {
				t.Errorf("cas1: %v", err)
			}
			prev1 = prev
		})
	})
	r.eng.RunUntil(2 * sim.Second)
	if prev0 != 0 {
		t.Fatalf("first CAS saw prev=%d, want 0", prev0)
	}
	if prev1 != 7 {
		t.Fatalf("second CAS saw prev=%d, want 7 (must lose)", prev1)
	}
	if got := binary.LittleEndian.Uint64(word); got != 7 {
		t.Fatalf("word = %d, want 7 (losing swap must not apply)", got)
	}
}

func TestRDMACompareSwapNoTargetCPUInvolvement(t *testing.T) {
	r := newRig(t, 2, Defaults())
	word := make([]byte, 8)
	mr := r.nics[1].RegisterWritableMR(StaticSource(word), len(word), func(b []byte) { copy(word, b) })
	r.nodes[0].Spawn("cas", func(tk *simos.Task) {
		r.nics[0].RDMACompareSwap(tk, 1, mr.Key(), 0, 42, nil2(t))
	})
	r.eng.RunUntil(sim.Second)
	for c := 0; c < 2; c++ {
		if r.nodes[1].K.CumIRQHard[c] != 0 {
			t.Fatalf("target CPU%d saw %d IRQs from an atomic, want 0",
				c, r.nodes[1].K.CumIRQHard[c])
		}
	}
	if r.nodes[1].K.CtxSwitches != 0 {
		t.Fatalf("target did %d context switches, want 0", r.nodes[1].K.CtxSwitches)
	}
	if r.nics[0].RDMAAtomics != 1 {
		t.Fatalf("RDMAAtomics = %d, want 1", r.nics[0].RDMAAtomics)
	}
}

// nil2 adapts a test-failing error check to the CAS completion.
func nil2(t *testing.T) func(uint64, error) {
	return func(_ uint64, err error) {
		if err != nil {
			t.Errorf("cas: %v", err)
		}
	}
}

func TestRDMACompareSwapErrors(t *testing.T) {
	r := newRig(t, 2, Defaults())
	ro := r.nics[1].RegisterMR(StaticSource(make([]byte, 8)), 8)
	small := make([]byte, 4)
	smallMR := r.nics[1].RegisterWritableMR(StaticSource(small), 4, func(b []byte) { copy(small, b) })
	var errRO, errKey, errLen error
	r.nodes[0].Spawn("cas", func(tk *simos.Task) {
		r.nics[0].RDMACompareSwap(tk, 1, ro.Key(), 0, 1, func(_ uint64, err error) {
			errRO = err
			r.nics[0].RDMACompareSwap(tk, 1, 9999, 0, 1, func(_ uint64, err error) {
				errKey = err
				r.nics[0].RDMACompareSwap(tk, 1, smallMR.Key(), 0, 1, func(_ uint64, err error) {
					errLen = err
				})
			})
		})
	})
	r.eng.RunUntil(sim.Second)
	if errRO != ErrPermission {
		t.Fatalf("read-only region: %v, want ErrPermission", errRO)
	}
	if errKey != ErrBadKey {
		t.Fatalf("bad key: %v, want ErrBadKey", errKey)
	}
	if errLen != ErrLength {
		t.Fatalf("short region: %v, want ErrLength", errLen)
	}
}

func TestRDMACompareSwapFrozenTargetStillServes(t *testing.T) {
	// The property the lease design rests on: a frozen host's NIC still
	// executes atomics, so a standby can seize the lease word even when
	// the old primary's host is wedged.
	r := newRig(t, 2, Defaults())
	word := make([]byte, 8)
	mr := r.nics[1].RegisterWritableMR(StaticSource(word), len(word), func(b []byte) { copy(word, b) })
	r.nodes[1].Freeze()
	var prev uint64
	var gotErr error
	r.nodes[0].Spawn("cas", func(tk *simos.Task) {
		r.nics[0].RDMACompareSwap(tk, 1, mr.Key(), 0, 5, func(p uint64, err error) {
			prev, gotErr = p, err
		})
	})
	r.eng.RunUntil(sim.Second)
	if gotErr != nil {
		t.Fatalf("CAS against frozen target: %v", gotErr)
	}
	if prev != 0 || binary.LittleEndian.Uint64(word) != 5 {
		t.Fatalf("prev=%d word=%d, want 0/5", prev, binary.LittleEndian.Uint64(word))
	}
}

func TestRDMACompareSwapBatch(t *testing.T) {
	r := newRig(t, 3, Defaults())
	words := make([][]byte, 3)
	keys := make([]uint32, 3)
	for i := range words {
		w := make([]byte, 8)
		words[i] = w
		keys[i] = r.nics[2].RegisterWritableMR(StaticSource(w), len(w), func(b []byte) { copy(w, b) }).Key()
	}
	binary.LittleEndian.PutUint64(words[1], 99) // second CAS must lose

	var results []CASResult
	r.nodes[0].Spawn("casbatch", func(tk *simos.Task) {
		r.nics[0].RDMACompareSwapBatch(tk, []CASReq{
			{Target: 2, Key: keys[0], Compare: 0, Swap: 7},
			{Target: 2, Key: keys[1], Compare: 0, Swap: 8},
			{Target: 2, Key: keys[2], Compare: 0, Swap: 9},
			{Target: 2, Key: 0xdead, Compare: 0, Swap: 1},
		}, func(res []CASResult) { results = append([]CASResult(nil), res...) })
	})
	r.eng.RunUntil(sim.Second)

	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if results[0].Err != nil || results[0].Prev != 0 {
		t.Fatalf("wr0: prev=%d err=%v, want win from 0", results[0].Prev, results[0].Err)
	}
	if results[1].Err != nil || results[1].Prev != 99 {
		t.Fatalf("wr1: prev=%d err=%v, want loss observing 99", results[1].Prev, results[1].Err)
	}
	if results[2].Err != nil || results[2].Prev != 0 {
		t.Fatalf("wr2: prev=%d err=%v, want win from 0", results[2].Prev, results[2].Err)
	}
	if results[3].Err != ErrBadKey {
		t.Fatalf("wr3: err=%v, want ErrBadKey (isolated per-WR failure)", results[3].Err)
	}
	if got := binary.LittleEndian.Uint64(words[0]); got != 7 {
		t.Fatalf("word0 = %d, want 7", got)
	}
	if got := binary.LittleEndian.Uint64(words[1]); got != 99 {
		t.Fatalf("word1 = %d, want 99 (losing swap must not apply)", got)
	}
	if got := binary.LittleEndian.Uint64(words[2]); got != 9 {
		t.Fatalf("word2 = %d, want 9", got)
	}
	if r.nics[0].DoorbellBatches != 1 {
		t.Fatalf("DoorbellBatches = %d, want 1 (one doorbell for the whole batch)", r.nics[0].DoorbellBatches)
	}
	if r.nics[0].RDMAAtomics != 4 {
		t.Fatalf("RDMAAtomics = %d, want 4", r.nics[0].RDMAAtomics)
	}
}

func TestRDMACompareSwapBatchRaceSerializes(t *testing.T) {
	// Two initiators batch-CAS the same word at the same instant:
	// exactly one must win — the responder NIC is the serialization
	// point for batched atomics exactly as for single ones.
	r := newRig(t, 3, Defaults())
	word := make([]byte, 8)
	key := r.nics[2].RegisterWritableMR(StaticSource(word), len(word), func(b []byte) { copy(word, b) }).Key()

	var res [2][]CASResult
	for i := 0; i < 2; i++ {
		i := i
		r.nodes[i].Spawn("rival", func(tk *simos.Task) {
			r.nics[i].RDMACompareSwapBatch(tk, []CASReq{
				{Target: 2, Key: key, Compare: 0, Swap: uint64(10 + i)},
			}, func(rs []CASResult) { res[i] = append([]CASResult(nil), rs...) })
		})
	}
	r.eng.RunUntil(sim.Second)

	wins := 0
	for i := 0; i < 2; i++ {
		if len(res[i]) != 1 || res[i][0].Err != nil {
			t.Fatalf("rival %d: results %+v", i, res[i])
		}
		if res[i][0].Prev == 0 {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d rivals won the same CAS, want exactly 1", wins)
	}
	got := binary.LittleEndian.Uint64(word)
	if got != 10 && got != 11 {
		t.Fatalf("word = %d, want the single winner's swap", got)
	}
}
