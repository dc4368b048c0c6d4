package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rdmamon/internal/cluster"
	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/livemon"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/procfs"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/tcpverbs"
	"rdmamon/internal/wire"
	"rdmamon/internal/workload"
)

// sweepDepth is the standing Engine.Len() of sweep-8192 at the end of
// its warm-up (three queued events per back-end); the traced run
// reports the depth it saw as sim.queue_len so drift from this
// constant is visible.
const sweepDepth = 3 * 8192

// layerPass times each module's public functions in closed loops, at
// the operating point of the workload the module feeds. Every result
// is host time per operation, the median over batches.
type layerPass struct {
	sz  sizes // sz.layerBudget is the measuring time per metric
	out map[string]float64
	// eventsPerOp records, for loops that run through the simulator,
	// how many engine events one operation executes, so a breakdown
	// can count engine time once.
	eventsPerOp map[string]float64
	err         error
}

func (lp *layerPass) fail(format string, args ...any) {
	if lp.err == nil {
		lp.err = fmt.Errorf(format, args...)
	}
}

// sink keeps the compiler from discarding a measured call.
var sink any

// timeOp returns the median host nanoseconds per operation of fn,
// where fn(n) performs n operations. The batch size is doubled until
// a batch lasts a tenth of the budget, then batches run until the
// budget is spent.
func (lp *layerPass) timeOp(fn func(n int)) float64 {
	n := 1
	var d time.Duration
	for {
		t0 := time.Now()
		fn(n)
		d = time.Since(t0)
		if d >= lp.sz.layerBudget/10 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := []float64{float64(d) / float64(n)}
	for spent := d; spent < lp.sz.layerBudget || len(per) < 5; {
		t0 := time.Now()
		fn(n)
		d = time.Since(t0)
		spent += d
		per = append(per, float64(d)/float64(n))
	}
	return median(per)
}

// allocsPerOp is heap allocations per operation over n operations,
// process-wide (the agent side of a loopback connection included).
func allocsPerOp(n int, fn func(n int)) float64 {
	m0 := mallocs()
	fn(n)
	return float64(mallocs()-m0) / float64(n)
}

// simLoop adapts a closed loop running inside a simulation — done is
// the loop's completion counter — to timeOp, and records events per
// operation under name.
func (lp *layerPass) simLoop(name string, eng *sim.Engine, done *int) func(n int) {
	run := func(n int) {
		for target := *done + n; *done < target; {
			if !eng.Step() {
				lp.fail("%s: simulation ran out of events", name)
				*done = target
			}
		}
	}
	run(64) // past the first-iteration transients
	d0, e0 := *done, eng.Processed
	run(256)
	lp.eventsPerOp[name] = float64(eng.Processed-e0) / float64(*done-d0)
	return run
}

func runLayers(sz sizes) (*layerPass, error) {
	lp := &layerPass{sz: sz, out: map[string]float64{}, eventsPerOp: map[string]float64{}}
	lp.simEngine()
	lp.simosNode()
	lp.simnetVerbs()
	lp.wireCodec()
	lp.loadbalancePick()
	lp.connpoolCycle()
	lp.clusterNew()
	lp.tcpverbsVerbs()
	lp.livemonFetch()
	lp.fixtures()
	lp.out["livemon.fetch_overhead_ns"] = lp.out["livemon.fetch_ns"] -
		lp.out["tcpverbs.read_ns"] - lp.out["wire.decode_record_ns"]
	return lp, lp.err
}

// simEngine: the hold model — schedule one event, execute one — on an
// engine holding a fixed number of pending events.
func (lp *layerPass) simEngine() {
	nop := func() {}
	rng := rand.New(rand.NewSource(1))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(rng.Int63n(int64(10 * sim.Millisecond)))
	}
	for _, d := range []struct {
		depth  int
		suffix string
	}{{lp.sz.simDepth, ""}, {256, ".d256"}} {
		eng := sim.NewEngine(1)
		for i := 0; i < d.depth; i++ {
			eng.After(delays[i%len(delays)], nop)
		}
		i := 0
		hold := func(n int) {
			for ; n > 0; n-- {
				eng.After(delays[i%len(delays)], nop)
				eng.Step()
				i++
			}
		}
		lp.out["sim.schedule_step_ns"+d.suffix] = lp.timeOp(hold)
		lp.out["sim.cancel_ns"+d.suffix] = lp.timeOp(func(n int) {
			for ; n > 0; n-- {
				eng.Cancel(eng.After(delays[i%len(delays)], nop))
				i++
			}
		})
		if d.suffix == "" {
			lp.out["sim.allocs_per_event"] = allocsPerOp(1<<14, hold)
		}
	}
}

func (lp *layerPass) simosNode() {
	// Idle nodes: only the scheduler's timer ticks run.
	eng := sim.NewEngine(1)
	nodes := lp.sz.idleNodes
	for i := 0; i < nodes; i++ {
		simos.NewNode(eng, i, simos.NodeDefaults())
	}
	eng.RunFor(100 * sim.Millisecond)
	e0 := eng.Processed
	perTick := lp.timeOp(func(n int) { eng.RunFor(sim.Time(n) * 10 * sim.Millisecond) })
	simS := float64(eng.Now()-100*sim.Millisecond) / float64(sim.Second)
	lp.out["simos.idle_node_sim_s_ns"] = perTick * 100 / float64(nodes)
	lp.eventsPerOp["simos.idle_node_sim_s_ns"] = float64(eng.Processed-e0) / simS / float64(nodes)

	// One task alternating a CPU burst and a sleep.
	eng = sim.NewEngine(1)
	node := simos.NewNode(eng, 0, simos.NodeDefaults())
	loops := 0
	node.Spawn("burst", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			tk.Compute(10*sim.Microsecond, func() {
				tk.Sleep(10*sim.Microsecond, func() { loops++; loop() })
			})
		}
		loop()
	})
	lp.out["simos.compute_sleep_ns"] = lp.timeOp(lp.simLoop("simos.compute_sleep_ns", eng, &loops))

	// A sleeper delivers to a port another task blocks on.
	eng = sim.NewEngine(1)
	node = simos.NewNode(eng, 0, simos.NodeDefaults())
	port := node.Port("bench")
	wakes := 0
	node.Spawn("receiver", func(tk *simos.Task) {
		var recv func(simos.Message)
		recv = func(simos.Message) { wakes++; tk.Recv(port, recv) }
		tk.Recv(port, recv)
	})
	node.Spawn("sender", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			tk.Sleep(5*sim.Microsecond, func() { port.Deliver(simos.Message{Size: 64}); loop() })
		}
		loop()
	})
	lp.out["simos.recv_wake_ns"] = lp.timeOp(lp.simLoop("simos.recv_wake_ns", eng, &wakes))
}

// twoNodes is the smallest fabric: an initiator and one target.
func twoNodes() (eng *sim.Engine, front *simos.Node, fnic *simnet.NIC, back *simos.Node, bnic *simnet.NIC) {
	eng = sim.NewEngine(1)
	fab := simnet.NewFabric(eng, simnet.Defaults())
	front = simos.NewNode(eng, 0, simos.NodeDefaults())
	fnic = fab.Attach(front)
	back = simos.NewNode(eng, 1, simos.NodeDefaults())
	bnic = fab.Attach(back)
	return
}

func (lp *layerPass) simnetVerbs() {
	record := wire.LoadRecord{NumCPU: 2, NodeID: 1, Seq: 1}.Encode()

	// closedLoop spawns a front-end task that re-posts post as soon as
	// the previous operation completes.
	closedLoop := func(name string, post func(tk *simos.Task, fnic *simnet.NIC, key uint32, done func()),
		register func(bnic *simnet.NIC) uint32) float64 {
		eng, front, fnic, _, bnic := twoNodes()
		key := register(bnic)
		ops := 0
		front.Spawn("bench", func(tk *simos.Task) {
			var loop func()
			loop = func() { post(tk, fnic, key, func() { ops++; loop() }) }
			loop()
		})
		return lp.timeOp(lp.simLoop(name, eng, &ops))
	}
	readable := func(bnic *simnet.NIC) uint32 {
		return bnic.RegisterMR(simnet.StaticSource(record), len(record)).Key()
	}
	lp.out["simnet.rdma_read_ns"] = closedLoop("simnet.rdma_read_ns",
		func(tk *simos.Task, fnic *simnet.NIC, key uint32, done func()) {
			fnic.RDMARead(tk, 1, key, wire.RecordSize, func([]byte, error) { done() })
		}, readable)

	push := make([]byte, wire.PushRecordSize)
	lp.out["simnet.write_ns"] = closedLoop("simnet.write_ns",
		func(tk *simos.Task, fnic *simnet.NIC, key uint32, done func()) {
			fnic.RDMAWrite(tk, 1, key, push, func(error) { done() })
		}, func(bnic *simnet.NIC) uint32 {
			slot := make([]byte, len(push))
			return bnic.RegisterWritableMR(simnet.StaticSource(slot), len(slot),
				func(b []byte) { copy(slot, b) }).Key()
		})

	var word uint64
	lp.out["simnet.cas_ns"] = closedLoop("simnet.cas_ns",
		func(tk *simos.Task, fnic *simnet.NIC, key uint32, done func()) {
			fnic.RDMACompareSwap(tk, 1, key, word, word+1, func(prev uint64, err error) {
				if err != nil || prev != word {
					lp.fail("simnet.cas_ns: prev %d, want %d (err %v)", prev, word, err)
				}
				word++
				done()
			})
		}, func(bnic *simnet.NIC) uint32 {
			cell := make([]byte, wire.ClaimWordSize)
			return bnic.RegisterWritableMR(simnet.StaticSource(cell), len(cell),
				func(b []byte) { copy(cell, b) }).Key()
		})

	// The sweep's shape: one doorbell batch of 32 reads into
	// caller-owned buffers; an operation is one read of the batch.
	eng, front, fnic, _, bnic := twoNodes()
	reqs := make([]simnet.ReadReq, 32)
	for i := range reqs {
		reqs[i] = simnet.ReadReq{Target: 1, Key: readable(bnic), Length: wire.RecordSize,
			Buf: make([]byte, wire.RecordSize)}
	}
	scratch := make([]simnet.ReadResult, len(reqs))
	reads := 0
	front.Spawn("bench", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			fnic.RDMAReadBatchInto(tk, reqs, scratch, func(res []simnet.ReadResult) {
				reads += len(res)
				loop()
			})
		}
		loop()
	})
	batch := lp.simLoop("simnet.read_batch32_ns_per_read", eng, &reads)
	lp.out["simnet.read_batch32_ns_per_read"] = lp.timeOp(batch)
	lp.out["simnet.allocs_per_read"] = allocsPerOp(1<<13, batch)

	// Channel semantics: a message to an echo server and its reply.
	eng, front, fnic, back, bnic := twoNodes()
	workload.StartEchoServers(back, bnic, 1)
	reply := front.Port("bench-reply")
	trips := 0
	front.Spawn("bench", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			fnic.Send(tk, 1, workload.EchoPort, 64, "bench-reply", func() {
				tk.Recv(reply, func(simos.Message) { trips++; loop() })
			})
		}
		loop()
	})
	lp.out["simnet.send_recv_ns"] = lp.timeOp(lp.simLoop("simnet.send_recv_ns", eng, &trips))
}

func (lp *layerPass) wireCodec() {
	rec := wire.LoadRecord{NumCPU: 2, NodeID: 7, Seq: 9, KTimeNS: 1e9, NrRunning: 3, NrTasks: 80,
		MemUsedKB: 1 << 18, MemTotalKB: 1 << 20, Conns: 12}
	rec.UtilPerMille[0], rec.UtilPerMille[1] = 400, 250
	buf := make([]byte, 0, wire.PushRecordSize)
	enc := rec.Encode()
	var out wire.LoadRecord
	lp.out["wire.encode_record_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			buf = rec.AppendTo(buf[:0])
		}
	})
	decode := func(n int) {
		for ; n > 0; n-- {
			if err := wire.DecodeInto(&out, enc); err != nil {
				lp.fail("wire.decode_record_ns: %v", err)
			}
		}
	}
	lp.out["wire.decode_record_ns"] = lp.timeOp(decode)
	lp.out["wire.allocs_per_decode"] = allocsPerOp(1<<14, decode)

	ring := wire.NewHistoryRing(16, 7)
	for i := 0; i < 16; i++ {
		rec.Seq++
		ring.Push(&rec)
	}
	var view wire.RingView
	lp.out["wire.decode_ring16_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			if err := wire.DecodeRingInto(&view, ring.Bytes()); err != nil {
				lp.fail("wire.decode_ring16_ns: %v", err)
			}
		}
	})

	pr := wire.PushRecord{PushSeq: 5, PushedNS: 2e9, Load: rec}
	penc := pr.Encode()
	lp.out["wire.encode_push_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			buf = pr.AppendTo(buf[:0])
		}
	})
	lp.out["wire.decode_push_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			p, err := wire.DecodePush(penc)
			if err != nil {
				lp.fail("wire.decode_push_ns: %v", err)
			}
			sink = p.PushSeq
		}
	})

	w := core.WeightsFor(core.RDMASync)
	var idx float64
	lp.out["core.index_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			idx += w.Index(rec)
		}
	})
	sink = idx
}

// dispatchCluster builds an n-back-end cluster exactly as dispatch-64
// does and routes client traffic until the dispatcher's recent-traffic
// window names every back-end: LocalFrac walks that window, so an idle
// dispatcher would measure an empty loop.
func (lp *layerPass) dispatchCluster(n int, policy cluster.PolicyName) *cluster.Cluster {
	c := cluster.New(cluster.Config{Backends: n, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: 1, Policy: policy, MonitorShards: 4, MonitorBatch: 32})
	c.StartRUBiS(24*n, 100*sim.Millisecond, 2)
	for step := 0; len(c.Dispatcher.ByNode) < n; step++ {
		if step == 400 {
			lp.fail("loadbalance: %d of %d back-ends routed to after 2 simulated seconds",
				len(c.Dispatcher.ByNode), n)
			break
		}
		c.Eng.RunFor(5 * sim.Millisecond)
	}
	return c
}

func (lp *layerPass) loadbalancePick() {
	static := func(int) (wire.LoadRecord, bool) { return wire.LoadRecord{NumCPU: 2}, true }
	for _, n := range lp.sz.pickSizes {
		c := lp.dispatchCluster(n.backends, cluster.PolicyLeastLoad)
		p := c.Policy.(*loadbalance.WeightedLeastLoad)
		p.Source = static
		lp.out["loadbalance.pick_ns."+n.label] = lp.timeOp(func(k int) {
			for ; k > 0; k-- {
				sink = p.Pick()
			}
		})
		if n.label == "n64" {
			d := c.Dispatcher
			var f float64
			lp.out["httpsim.localfrac_ns.n64"] = lp.timeOp(func(k int) {
				for ; k > 0; k-- {
					f += d.LocalFrac(1 + k%n.backends)
				}
			})
			sink = f
		}
	}
	c := lp.dispatchCluster(lp.sz.propBackends, cluster.PolicyWebSphere)
	p := c.Policy.(*loadbalance.WeightedProportional)
	p.Source = static
	p.Aged = nil
	lp.out["loadbalance.pick_prop_ns.n64"] = lp.timeOp(func(k int) {
		for ; k > 0; k-- {
			sink = p.Pick()
		}
	})
}

func (lp *layerPass) connpoolCycle() {
	var clock int64
	now := func() int64 { clock += 1000; return clock }
	warm := connpool.New[int, int](connpool.Config{MaxConns: 4}, now)
	if _, v, _ := warm.Acquire(1, false); v != connpool.Dial {
		lp.fail("connpool: first acquire gave %v, want a dial", v)
		return
	}
	l, err := warm.DialDone(1, 100)
	if err != nil {
		lp.fail("connpool: %v", err)
		return
	}
	warm.Release(l, nil)
	lp.out["connpool.acquire_release_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			l, v, _ := warm.Acquire(1, false)
			if v != connpool.Conn {
				lp.fail("connpool: warm acquire gave %v", v)
			}
			warm.Release(l, nil)
		}
	})

	// One slot, alternating targets: every acquire misses, evicts the
	// other target's idle connection and dials.
	cold := connpool.New[int, int](connpool.Config{MaxConns: 1}, now)
	key := 0
	lp.out["connpool.dial_cycle_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			key ^= 1
			if _, v, why := cold.Acquire(key, false); v != connpool.Dial {
				lp.fail("connpool: cold acquire gave %v (%v)", v, why)
				return
			}
			l, err := cold.DialDone(key, key)
			if err != nil {
				lp.fail("connpool: %v", err)
				return
			}
			cold.Release(l, nil)
		}
	})
}

func (lp *layerPass) clusterNew() {
	n := lp.sz.sweepBackends
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sink = cluster.New(sweepConfig(n, 1))
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	sink = nil
	lp.out["cluster.new_ns_per_backend"] = median(per)
}

func (lp *layerPass) tcpverbsVerbs() {
	agent, err := tcpverbs.Listen("127.0.0.1:0")
	if err != nil {
		lp.fail("tcpverbs: %v", err)
		return
	}
	defer agent.Close()
	m := newMixedRegions(agent, 1, nil, nil, nil)
	agent.HandleCall("echo", func(p []byte) []byte { return p })
	conn, err := tcpverbs.Dial(agent.Addr())
	if err != nil {
		lp.fail("tcpverbs: %v", err)
		return
	}
	defer conn.Close()
	cl := newMixedClient(conn, m, 1)

	record := wire.LoadRecord{NumCPU: 2, NodeID: 1, Seq: 1}.Encode()
	key := agent.RegisterMR(func() []byte { return record }, len(record)).Key()
	buf := make([]byte, 0, wire.RecordSize)
	read := func(n int) {
		for ; n > 0; n-- {
			if buf, err = conn.RDMAReadInto(key, wire.RecordSize, buf); err != nil {
				lp.fail("tcpverbs.read_ns: %v", err)
				return
			}
		}
	}
	lp.out["tcpverbs.read_ns"] = lp.timeOp(read)
	lp.out["tcpverbs.allocs_per_read"] = allocsPerOp(1<<11, read)
	if s0, ok := syscalls(); ok {
		const reads = 1 << 11
		read(reads)
		s1, _ := syscalls()
		lp.out["tcpverbs.syscalls_per_read"] = float64(s1-s0) / reads
	}
	step := func(name string, fn func() error) {
		lp.out[name] = lp.timeOp(func(n int) {
			for ; n > 0; n-- {
				if err := fn(); err != nil {
					lp.fail("%s: %v", name, err)
					return
				}
			}
		})
	}
	step("tcpverbs.batch32_ns_per_read", cl.readBatch)
	lp.out["tcpverbs.batch32_ns_per_read"] /= mixedRings
	step("tcpverbs.write_ns", cl.write)
	step("tcpverbs.cas_ns", cl.renew)
	payload := make([]byte, 16)
	step("tcpverbs.call_ns", func() error { _, err := conn.Call("echo", payload); return err })
	step("tcpverbs.dial_ns", func() error {
		c, err := tcpverbs.Dial(agent.Addr())
		if err != nil {
			return err
		}
		return c.Close()
	})
}

func (lp *layerPass) livemonFetch() {
	start := func(historyK int) (*livemon.Agent, bool) {
		a, err := livemon.StartAgent(livemon.Config{Scheme: core.RDMASync, Addr: "127.0.0.1:0",
			NodeID: 1, Provider: syntheticProvider(), HistoryK: historyK})
		if err != nil {
			lp.fail("livemon: %v", err)
		}
		return a, err == nil
	}
	fetchLoop := func(name string, p *livemon.Probe) {
		lp.out[name] = lp.timeOp(func(n int) {
			for ; n > 0; n-- {
				if _, err := p.Fetch(); err != nil {
					lp.fail("%s: %v", name, err)
					return
				}
			}
		})
	}
	agent, ok := start(0)
	if !ok {
		return
	}
	defer agent.Close()
	if p, err := livemon.Dial(agent.Addr()); err != nil {
		lp.fail("livemon: %v", err)
	} else {
		fetchLoop("livemon.fetch_ns", p)
		p.Close()
	}
	lp.out["livemon.handshake_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			p, err := livemon.Dial(agent.Addr())
			if err != nil {
				lp.fail("livemon.handshake_ns: %v", err)
				return
			}
			p.Close()
		}
	})
	pool := livemon.NewConnPool(livemon.PoolConfig{Config: connpool.Config{MaxConns: 4}})
	defer pool.Close()
	if p, err := livemon.DialPooled(pool, agent.Addr()); err != nil {
		lp.fail("livemon: %v", err)
	} else {
		fetchLoop("livemon.pooled_fetch_ns", p)
		p.Close()
	}

	ringed, ok := start(16)
	if !ok {
		return
	}
	defer ringed.Close()
	p, err := livemon.Dial(ringed.Addr())
	if err != nil {
		lp.fail("livemon: %v", err)
		return
	}
	defer p.Close()
	lp.out["livemon.fetch_history16_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			v, err := p.FetchHistory()
			if err != nil {
				lp.fail("livemon.fetch_history16_ns: %v", err)
				return
			}
			sink = v.Count
		}
	})
}

// fixtures: parsers fed from committed files, so the numbers do not
// depend on the host's /proc or on what an example happens to hold
// beyond its size.
func (lp *layerPass) fixtures() {
	root := repoRoot()
	proc := procfs.NewLinux(filepath.Join(root, "bench", "testdata", "proc"))
	lp.out["procfs.snapshot_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			s, err := proc.Snapshot()
			if err != nil {
				lp.fail("procfs.snapshot_ns: %v", err)
				return
			}
			sink = s.NrTasks
		}
	})
	src, err := os.ReadFile(filepath.Join(root, "examples", "scenarios", "hetero-dispatch.yaml"))
	if err != nil {
		lp.fail("scenario.parse_compile_ns: %v", err)
		return
	}
	lp.out["scenario.parse_compile_ns"] = lp.timeOp(func(n int) {
		for ; n > 0; n-- {
			s, err := scenario.Parse(src)
			if err == nil {
				_, err = s.Compile(false)
			}
			if err != nil {
				lp.fail("scenario.parse_compile_ns: %v", err)
				return
			}
		}
	})
}
