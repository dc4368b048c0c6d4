package simos

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"rdmamon/internal/sim"
)

// pendingIRQ is the number of hard and soft interrupts pending (queued
// or in service) on CPU cpuID — the observable the paper reads from
// irq_stat.
func pendingIRQ(n *Node, cpuID int) (hard, soft int) {
	return n.pendingIRQ(n.cpus[cpuID], n.catchUp())
}

// utilPerMille is CPU cpuID's utilisation over the configured window,
// in parts per thousand.
func utilPerMille(n *Node, cpuID int) int {
	return n.K.utilPerMille(n.cpus[cpuID], n.catchUp())
}

func newTestNode(t *testing.T, cfg Config) (*sim.Engine, *Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := NewNode(eng, 0, cfg)
	return eng, n
}

// lightCfg removes most overheads so arithmetic in tests is exact.
func lightCfg() Config {
	cfg := NodeDefaults()
	cfg.CtxSwitchCost = -1
	cfg.WakeCost = -1
	cfg.RecvCost = -1
	cfg.TimerIRQCost = -1
	return cfg
}

func TestSingleComputeRunsToCompletion(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	done := sim.Time(-1)
	n.Spawn("worker", func(tk *Task) {
		tk.Compute(7*sim.Millisecond, func() {
			done = eng.Now()
		})
	})
	eng.RunUntil(sim.Second)
	if done != 7*sim.Millisecond {
		t.Fatalf("compute finished at %v, want 7ms", done)
	}
}

func TestTaskExitsAfterFinalContinuation(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	tk := n.Spawn("w", func(tk *Task) {
		tk.Compute(sim.Millisecond, func() {})
	})
	eng.RunUntil(10 * sim.Millisecond)
	if tk.Alive() {
		t.Fatal("task should exit after issuing no further op")
	}
	if len(n.tasks) != 0 {
		t.Fatalf("NrTasks = %d, want 0", len(n.tasks))
	}
}

func TestTwoCPUsRunInParallel(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		n.Spawn("w", func(tk *Task) {
			tk.Compute(10*sim.Millisecond, func() { done[i] = eng.Now() })
		})
	}
	eng.RunUntil(sim.Second)
	for i, d := range done {
		if d != 10*sim.Millisecond {
			t.Fatalf("task %d finished at %v, want 10ms (parallel)", i, d)
		}
	}
}

func TestThreeTasksTwoCPUsShareFairly(t *testing.T) {
	cfg := lightCfg()
	eng, n := newTestNode(t, cfg)
	var done [3]sim.Time
	for i := 0; i < 3; i++ {
		i := i
		n.Spawn("w", func(tk *Task) {
			tk.NoBoost = true
			tk.Compute(200*sim.Millisecond, func() { done[i] = eng.Now() })
		})
	}
	eng.RunUntil(2 * sim.Second)
	// 600ms of work on 2 CPUs: ideal makespan 300ms. With 50ms RR the
	// last finisher should be close to 300ms, certainly under 360ms,
	// and no task can finish before 200ms.
	for i, d := range done {
		if d == 0 {
			t.Fatalf("task %d never finished", i)
		}
		if d < 200*sim.Millisecond {
			t.Fatalf("task %d finished at %v, impossible (<200ms)", i, d)
		}
	}
	last := max3(done[0], done[1], done[2])
	if last < 290*sim.Millisecond || last > 360*sim.Millisecond {
		t.Fatalf("makespan %v, want ~300ms (fair RR)", last)
	}
}

func max3(a, b, c sim.Time) sim.Time {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func TestSleepWakeTiming(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	var woke sim.Time
	n.Spawn("s", func(tk *Task) {
		tk.Compute(sim.Millisecond, func() {
			tk.Sleep(5*sim.Millisecond, func() {
				tk.Compute(sim.Millisecond, func() { woke = eng.Now() })
			})
		})
	})
	eng.RunUntil(sim.Second)
	if woke != 7*sim.Millisecond {
		t.Fatalf("post-sleep compute done at %v, want 7ms", woke)
	}
}

func TestWokenTaskPreemptsCPUBoundTask(t *testing.T) {
	cfg := lightCfg()
	cfg.NumCPU = 1
	eng, n := newTestNode(t, cfg)
	var monitorDone sim.Time
	// CPU hog in the normal band.
	n.Spawn("hog", func(tk *Task) {
		tk.NoBoost = true
		tk.Compute(sim.Second, func() {})
	})
	// Monitor-style task: sleeps, then needs 100us.
	n.Spawn("mon", func(tk *Task) {
		tk.Sleep(10*sim.Millisecond, func() {
			tk.Compute(100*sim.Microsecond, func() { monitorDone = eng.Now() })
		})
	})
	eng.RunUntil(2 * sim.Second)
	// Boosted wake should preempt the hog immediately: done ~10.1ms,
	// not after the hog's quantum (which would be tens of ms later).
	if monitorDone != 10*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("monitor done at %v, want 10.1ms (wake preemption)", monitorDone)
	}
}

func TestNoPreemptionWithinBoostBand(t *testing.T) {
	cfg := lightCfg()
	cfg.NumCPU = 1
	eng, n := newTestNode(t, cfg)
	var order []string
	// Two tasks sleep and wake at nearly the same time; the first one
	// to wake must run to completion of its burst before the second.
	n.Spawn("a", func(tk *Task) {
		tk.Sleep(10*sim.Millisecond, func() {
			tk.Compute(2*sim.Millisecond, func() { order = append(order, "a") })
		})
	})
	n.Spawn("b", func(tk *Task) {
		tk.Sleep(10*sim.Millisecond+sim.Microsecond, func() {
			tk.Compute(100*sim.Microsecond, func() { order = append(order, "b") })
		})
	})
	eng.RunUntil(sim.Second)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]: FIFO within boost band", order)
	}
}

func TestBoostDemotionAfterBudget(t *testing.T) {
	cfg := lightCfg()
	cfg.NumCPU = 1
	cfg.BoostBudget = 5 * sim.Millisecond
	eng, n := newTestNode(t, cfg)
	var hogProgress sim.Time
	// A "boost abuser": wakes then computes forever.
	n.Spawn("abuser", func(tk *Task) {
		tk.Sleep(sim.Millisecond, func() {
			tk.Compute(sim.Second, func() {})
		})
	})
	// A normal-band hog that should still make progress once the
	// abuser is demoted (they then share via RR).
	n.Spawn("hog", func(tk *Task) {
		tk.NoBoost = true
		tk.Compute(100*sim.Millisecond, func() { hogProgress = eng.Now() })
	})
	eng.RunUntil(400 * sim.Millisecond)
	if hogProgress == 0 {
		t.Fatal("normal-band task starved: boost demotion not working")
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	var tk *Task
	tk = n.Spawn("w", func(x *Task) {
		x.Compute(3*sim.Millisecond, func() {
			x.Sleep(2*sim.Millisecond, func() {
				x.Compute(4*sim.Millisecond, func() {})
			})
		})
	})
	eng.RunUntil(sim.Second)
	if tk.CPUTime != 7*sim.Millisecond {
		t.Fatalf("CPUTime = %v, want 7ms", tk.CPUTime)
	}
}

func TestUtilizationSaturated(t *testing.T) {
	cfg := lightCfg()
	eng, n := newTestNode(t, cfg)
	for i := 0; i < 2; i++ {
		n.Spawn("hog", func(tk *Task) {
			tk.NoBoost = true
			tk.Compute(10*sim.Second, func() {})
		})
	}
	eng.RunUntil(500 * sim.Millisecond)
	for c := 0; c < 2; c++ {
		if u := utilPerMille(n, c); u < 950 {
			t.Fatalf("cpu%d util = %d, want ~1000 (saturated)", c, u)
		}
	}
}

func TestUtilizationIdle(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	eng.RunUntil(500 * sim.Millisecond)
	for c := 0; c < 2; c++ {
		if u := utilPerMille(n, c); u > 20 {
			t.Fatalf("cpu%d util = %d on idle node, want ~0", c, u)
		}
	}
}

func TestUtilizationHalf(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	// One hog on a 2-CPU node: one CPU busy, one idle.
	n.Spawn("hog", func(tk *Task) {
		tk.NoBoost = true
		tk.Compute(10*sim.Second, func() {})
	})
	eng.RunUntil(sim.Second)
	s := n.K.Snapshot()
	if m := s.UtilMean(); m < 400 || m > 600 {
		t.Fatalf("mean util = %d, want ~500", m)
	}
}

func TestReadProcCostsTime(t *testing.T) {
	cfg := lightCfg()
	cfg.ProcReadCost = 150 * sim.Microsecond
	cfg.ProcReadPerTask = -1
	eng, n := newTestNode(t, cfg)
	var got Snapshot
	var when sim.Time
	n.Spawn("reader", func(tk *Task) {
		tk.ReadProc(func() {
			tk.ProcSnapshot(&got)
			when = eng.Now()
		})
	})
	eng.RunUntil(sim.Second)
	if when != 150*sim.Microsecond {
		t.Fatalf("proc read completed at %v, want 150us", when)
	}
	if got.NodeID != 0 || got.NumCPU != 2 {
		t.Fatalf("snapshot = %+v, want node 0 with 2 CPUs", got)
	}
	if got.MemTotalKB == 0 || got.MemUsedKB == 0 {
		t.Fatal("snapshot should carry memory info")
	}
}

func TestPortDeliverWakesBlockedTask(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	p := n.Port("svc")
	var got Message
	var when sim.Time
	n.Spawn("rx", func(tk *Task) {
		tk.Recv(p, func(m Message) {
			got = m
			when = eng.Now()
		})
	})
	eng.Schedule(5*sim.Millisecond, func() {
		p.Deliver(Message{From: 9, Size: 64, Payload: "hi", SentAt: eng.Now()})
	})
	eng.RunUntil(sim.Second)
	if got.Payload != "hi" || got.From != 9 {
		t.Fatalf("got message %+v", got)
	}
	if when < 5*sim.Millisecond {
		t.Fatalf("delivered at %v, before send", when)
	}
}

func TestPortBuffersWhenNoWaiter(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	p := n.Port("svc")
	p.Deliver(Message{Payload: 1})
	p.Deliver(Message{Payload: 2})
	if p.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", p.QueueLen())
	}
	var got []int
	n.Spawn("rx", func(tk *Task) {
		var loop func(Message)
		loop = func(m Message) {
			got = append(got, m.Payload.(int))
			if len(got) < 2 {
				tk.Recv(p, loop)
			}
		}
		tk.Recv(p, loop)
	})
	eng.RunUntil(sim.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2] in order", got)
	}
}

// TestDrainedPortHoldsNoPayload pins that a port forgets what it has
// delivered: once a task has taken every message — two queued before it
// asked, two handed to it while it waited — neither the port's queue,
// its wait list nor the task keeps a payload reachable.
func TestDrainedPortHoldsNoPayload(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	p := n.Port("svc")
	type payload struct{ body [256]byte }
	var sent []weak.Pointer[payload]
	deliver := func() {
		v := &payload{}
		sent = append(sent, weak.Make(v))
		p.Deliver(Message{Size: len(v.body), Payload: v})
	}
	deliver()
	deliver()
	got := 0
	n.Spawn("rx", func(tk *Task) {
		var loop func(Message)
		loop = func(Message) { got++; tk.Recv(p, loop) }
		tk.Recv(p, loop)
	})
	eng.Schedule(5*sim.Millisecond, deliver)
	eng.Schedule(6*sim.Millisecond, deliver)
	eng.RunUntil(sim.Second)
	if got != 4 || p.QueueLen() != 0 {
		t.Fatalf("received %d of 4 messages, %d still queued", got, p.QueueLen())
	}
	runtime.GC()
	for i, w := range sent {
		if w.Value() != nil {
			t.Errorf("message %d's payload is still reachable from the drained port", i)
		}
	}
	runtime.KeepAlive(p) // the port and its task stay live through the check
}

// TestFifoStandingBacklogBounded pins the fifo under a backlog that
// never drains: order is kept and the array stays a small multiple of
// the backlog, not as long as everything ever pushed.
func TestFifoStandingBacklogBounded(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for ; next < 100; next++ {
		q.push(next)
	}
	for i := 0; i < 100000; i++ {
		q.push(next)
		next++
		if got := q.pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
		want++
	}
	if q.len() != 100 || cap(q.buf) > 400 {
		t.Fatalf("backlog %d in an array of %d", q.len(), cap(q.buf))
	}
}

func TestPortSameNodeOnly(t *testing.T) {
	eng := sim.NewEngine(1)
	n1 := NewNode(eng, 1, lightCfg())
	n2 := NewNode(eng, 2, lightCfg())
	p := n2.Port("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Recv on foreign port should panic")
		}
	}()
	n1.Spawn("bad", func(tk *Task) {
		tk.Recv(p, func(Message) {})
	})
}

// A node's ports are one slice sorted by name: Port finds or inserts by
// binary search, so a front end holding a reply port per back-end that
// fell back to sockets looks one up in log time, and every name maps to
// one port for the node's life.
func TestPortTableSortedByName(t *testing.T) {
	_, n := newTestNode(t, lightCfg())
	byName := map[string]*Port{}
	for _, i := range rand.New(rand.NewSource(1)).Perm(710) {
		name := fmt.Sprintf("reply-%d", i)
		byName[name] = n.Port(name)
	}
	sorted := slices.IsSortedFunc(n.ports, func(a, b *Port) int { return strings.Compare(a.name, b.name) })
	if !sorted || len(n.ports) != len(byName) {
		t.Fatalf("%d ports, sorted %v; want %d sorted by name", len(n.ports), sorted, len(byName))
	}
	for name, p := range byName {
		if n.Port(name) != p || n.LookupPort(name) != p || p.name != name {
			t.Fatalf("port %q is not the one it was created as", name)
		}
	}
	if n.LookupPort("reply-710") != nil || n.LookupPort("") != nil || len(n.ports) != len(byName) {
		t.Fatal("LookupPort of a name never used found a port or made one")
	}
}

// Nodes built from equal configurations share one sanitized copy; a
// zero field and its default sanitize to equal configurations.
func TestNodesShareEqualConfig(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := NewNode(eng, 1, NodeDefaults()), NewNode(eng, 2, Config{})
	c := NewNode(eng, 3, lightCfg())
	if a.Cfg != b.Cfg || *a.Cfg != NodeDefaults() {
		t.Fatalf("default nodes hold %p and %p, want one copy of the defaults", a.Cfg, b.Cfg)
	}
	if c.Cfg == a.Cfg || c.Cfg.CtxSwitchCost != 0 {
		t.Fatalf("a light node shares the default config or lost its zero costs: %+v", *c.Cfg)
	}
}

func TestIRQPausesAndResumesTask(t *testing.T) {
	cfg := lightCfg()
	cfg.NumCPU = 1
	cfg.NetIRQCPU = 0
	cfg.NetIRQHard = 100 * sim.Microsecond
	cfg.NetIRQSoft = -1
	eng, n := newTestNode(t, cfg)
	var done sim.Time
	n.Spawn("w", func(tk *Task) {
		tk.NoBoost = true
		tk.Compute(10*sim.Millisecond, func() { done = eng.Now() })
	})
	eng.Schedule(2*sim.Millisecond, func() { n.RaiseNetIRQ(nil) })
	eng.RunUntil(sim.Second)
	want := 10*sim.Millisecond + 100*sim.Microsecond
	if done != want {
		t.Fatalf("task done at %v, want %v (burst stretched by IRQ)", done, want)
	}
}

func TestIRQPendingDuringStorm(t *testing.T) {
	cfg := lightCfg()
	cfg.NetIRQHard = 50 * sim.Microsecond
	cfg.NetIRQSoft = 50 * sim.Microsecond
	eng, n := newTestNode(t, cfg)
	// Ten interrupts injected back-to-back: while the first services,
	// the rest are pending.
	eng.Schedule(sim.Millisecond, func() {
		for i := 0; i < 10; i++ {
			n.RaiseNetIRQ(nil)
		}
	})
	eng.Schedule(sim.Millisecond+10*sim.Microsecond, func() {
		hard, _ := pendingIRQ(n, n.Cfg.NetIRQCPU)
		if hard < 8 {
			t.Errorf("pending hard = %d mid-storm, want >=8", hard)
		}
	})
	// After the hard phase (10 x 50us) the backlog lives in the soft
	// queue (Linux-2.4 bottom halves).
	eng.Schedule(sim.Millisecond+600*sim.Microsecond, func() {
		hard, soft := pendingIRQ(n, n.Cfg.NetIRQCPU)
		if hard != 0 {
			t.Errorf("pending hard = %d in soft phase, want 0", hard)
		}
		if soft < 5 {
			t.Errorf("pending soft = %d in soft phase, want >=5", soft)
		}
	})
	eng.RunUntil(sim.Second)
	hard, _ := pendingIRQ(n, n.Cfg.NetIRQCPU)
	if hard != 0 {
		t.Fatalf("pending hard = %d after drain, want 0", hard)
	}
	if n.K.CumIRQHard(n.Cfg.NetIRQCPU) < 10 {
		t.Fatalf("cumulative IRQ count %d, want >=10", n.K.CumIRQHard(n.Cfg.NetIRQCPU))
	}
}

func TestIRQAffinity(t *testing.T) {
	cfg := lightCfg()
	cfg.TimerIRQCost = -1
	eng, n := newTestNode(t, cfg)
	for i := 0; i < 5; i++ {
		n.RaiseNetIRQ(nil)
	}
	eng.RunUntil(100 * sim.Millisecond)
	if n.K.CumIRQHard(1) < 5 {
		t.Fatalf("CPU1 (NIC-affine) hard IRQs = %d, want >=5", n.K.CumIRQHard(1))
	}
	if n.K.CumIRQHard(0) != 0 {
		t.Fatalf("CPU0 got %d net IRQs, want 0", n.K.CumIRQHard(0))
	}
}

func TestNrRunnable(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	for i := 0; i < 5; i++ {
		n.Spawn("hog", func(tk *Task) {
			tk.NoBoost = true
			tk.Compute(sim.Second, func() {})
		})
	}
	n.Spawn("sleeper", func(tk *Task) {
		tk.Sleep(10*sim.Second, func() {})
	})
	eng.RunUntil(50 * sim.Millisecond)
	if got := n.nrRunnable; got != 5 {
		t.Fatalf("NrRunnable = %d, want 5 (sleeper excluded)", got)
	}
	if got := len(n.tasks); got != 6 {
		t.Fatalf("NrTasks = %d, want 6", got)
	}
}

func TestSnapshotReflectsCountersAndMemory(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	n.K.SetConnFn(func() int { return 3 })
	n.K.AddMemKB(1024)
	n.K.AddNetRx(500)
	n.K.AddNetTx(700)
	eng.RunUntil(sim.Millisecond)
	s := n.K.Snapshot()
	if s.Conns != 3 {
		t.Errorf("Conns = %d, want 3", s.Conns)
	}
	if s.MemUsedKB != n.Cfg.MemBaseKB+1024 {
		t.Errorf("MemUsedKB = %d, want base+1024", s.MemUsedKB)
	}
	if s.NetRxBytes != 500 || s.NetTxBytes != 700 {
		t.Errorf("net counters = %d/%d, want 500/700", s.NetRxBytes, s.NetTxBytes)
	}
}

func TestExitCancelsSleepAndWait(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	fired := false
	tk := n.Spawn("s", func(tk *Task) {
		tk.Sleep(10*sim.Millisecond, func() { fired = true })
	})
	eng.RunUntil(5 * sim.Millisecond)
	tk.Exit()
	eng.RunUntil(sim.Second)
	if fired {
		t.Fatal("sleep continuation ran after Exit")
	}
	p := n.Port("x")
	tk2 := n.Spawn("r", func(tk *Task) {
		tk.Recv(p, func(Message) { fired = true })
	})
	eng.RunUntil(sim.Second + 10*sim.Millisecond)
	tk2.Exit()
	p.Deliver(Message{})
	eng.RunUntil(2 * sim.Second)
	if fired {
		t.Fatal("recv continuation ran after Exit")
	}
	if p.QueueLen() != 1 {
		t.Fatal("message to dead waiter should remain buffered")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng := sim.NewEngine(99)
		n := NewNode(eng, 0, NodeDefaults())
		var total sim.Time
		for i := 0; i < 6; i++ {
			n.Spawn("mix", func(tk *Task) {
				var loop func()
				loop = func() {
					d := sim.Time(eng.Rand().Intn(2000)+100) * sim.Microsecond
					tk.Compute(d, func() {
						tk.Sleep(sim.Time(eng.Rand().Intn(1000)+50)*sim.Microsecond, loop)
					})
				}
				loop()
			})
		}
		eng.RunUntil(2 * sim.Second)
		for _, tk := range n.tasks {
			total += tk.CPUTime
		}
		return total, n.K.CtxSwitches
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, c1, t2, c2)
	}
}

// Invariant: total task CPU time never exceeds wall time * NumCPU, and
// under saturation it is close to it.
func TestCPUConservation(t *testing.T) {
	cfg := NodeDefaults()
	eng := sim.NewEngine(7)
	n := NewNode(eng, 0, cfg)
	tasks := make([]*Task, 0, 8)
	for i := 0; i < 8; i++ {
		tk := n.Spawn("hog", func(tk *Task) {
			tk.NoBoost = true
			tk.Compute(10*sim.Second, func() {})
		})
		tasks = append(tasks, tk)
	}
	wall := sim.Time(3 * sim.Second)
	eng.RunUntil(wall)
	var total sim.Time
	for _, tk := range tasks {
		total += tk.CPUTime
	}
	capacity := wall * sim.Time(cfg.NumCPU)
	if total > capacity {
		t.Fatalf("CPU over-accounted: %v > capacity %v", total, capacity)
	}
	if total < capacity*95/100 {
		t.Fatalf("CPU under-used at saturation: %v of %v", total, capacity)
	}
}
