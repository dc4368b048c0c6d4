package simos

import (
	"testing"

	"rdmamon/internal/sim"
)

func TestAwaitResume(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	var got any
	var when sim.Time
	tk := n.Spawn("w", func(tk *Task) {
		tk.Compute(sim.Millisecond, func() {
			tk.Await(func(v any) {
				got = v
				when = eng.Now()
			})
		})
	})
	eng.Schedule(5*sim.Millisecond, func() { tk.Resume("done") })
	eng.RunUntil(sim.Second)
	if got != "done" {
		t.Fatalf("await got %v", got)
	}
	if when < 5*sim.Millisecond {
		t.Fatalf("resumed at %v, before Resume was called", when)
	}
}

func TestResumeWithoutAwaitIsNoop(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	tk := n.Spawn("w", func(tk *Task) {
		tk.Compute(10*sim.Millisecond, func() {})
	})
	tk.Resume(1) // running, not awaiting
	eng.RunUntil(sim.Second)
	if tk.Alive() {
		t.Fatal("task should have finished normally")
	}
}

func TestPortMultipleWaitersFIFO(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	p := n.Port("pool")
	var order []string
	mkWorker := func(name string) {
		n.Spawn(name, func(tk *Task) {
			tk.Recv(p, func(m Message) {
				order = append(order, name)
			})
		})
	}
	mkWorker("w1")
	mkWorker("w2")
	mkWorker("w3")
	eng.Schedule(sim.Millisecond, func() {
		p.Deliver(Message{Payload: 1})
		p.Deliver(Message{Payload: 2})
		p.Deliver(Message{Payload: 3})
	})
	eng.RunUntil(sim.Second)
	if len(order) != 3 {
		t.Fatalf("served %v", order)
	}
	// Longest-waiting worker first.
	if order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("waiter order = %v, want FIFO", order)
	}
}

func TestProcReadCostScalesWithTasks(t *testing.T) {
	measure := func(extraTasks int) sim.Time {
		cfg := lightCfg()
		cfg.ProcReadCost = 100 * sim.Microsecond
		cfg.ProcReadPerTask = 50 * sim.Microsecond
		eng, n := newTestNode(t, cfg)
		for i := 0; i < extraTasks; i++ {
			n.Spawn("sleeper", func(tk *Task) {
				tk.Sleep(10*sim.Second, func() {})
			})
		}
		var done sim.Time
		n.Spawn("reader", func(tk *Task) {
			tk.ReadProc(func() { done = eng.Now() })
		})
		eng.RunUntil(sim.Second)
		return done
	}
	few, many := measure(0), measure(20)
	if many <= few {
		t.Fatal("/proc read should cost more with more tasks")
	}
	// 20 extra tasks at 50us each = +1ms.
	if d := many - few; d != sim.Millisecond {
		t.Fatalf("per-task delta = %v, want exactly 1ms", d)
	}
}

func TestReadProcMasksPendingInterrupts(t *testing.T) {
	// While a softirq storm is pending on CPU1, a /proc reader on CPU0
	// must see zero soft-pending everywhere (globally serialized
	// bottom halves) and zero hard-pending on its own CPU.
	cfg := lightCfg()
	cfg.NetIRQHard = 50 * sim.Microsecond
	cfg.NetIRQSoft = 500 * sim.Microsecond
	cfg.ProcReadCost = 10 * sim.Microsecond
	cfg.ProcReadPerTask = -1
	eng, n := newTestNode(t, cfg)
	var userView Snapshot
	var dmaView Snapshot
	eng.Schedule(sim.Millisecond, func() {
		for i := 0; i < 10; i++ {
			n.RaiseNetIRQ(nil)
		}
	})
	eng.Schedule(sim.Millisecond+200*sim.Microsecond, func() {
		dmaView = n.K.Snapshot() // DMA-style direct read
	})
	n.Spawn("reader", func(tk *Task) {
		tk.Sleep(sim.Millisecond+100*sim.Microsecond, func() {
			tk.ReadProc(func() { tk.ProcSnapshot(&userView) })
		})
	})
	eng.RunUntil(sim.Second)
	if dmaView.IrqPendingSoft[1] == 0 && dmaView.IrqPendingHard[1] == 0 {
		t.Fatal("DMA view should catch the storm")
	}
	for c := 0; c < 2; c++ {
		if userView.IrqPendingSoft[c] != 0 {
			t.Fatalf("user view soft-pending cpu%d = %d, want 0", c, userView.IrqPendingSoft[c])
		}
	}
}

func TestAblationWakePreemptBeatsFIFO(t *testing.T) {
	measure := func(ablate bool) sim.Time {
		cfg := NodeDefaults()
		cfg.AblationWakePreempt = ablate
		eng := sim.NewEngine(9)
		n := NewNode(eng, 0, cfg)
		// Fill the boost band with churning workers.
		for i := 0; i < 10; i++ {
			n.Spawn("churn", func(tk *Task) {
				var loop func()
				loop = func() {
					tk.Compute(800*sim.Microsecond, func() {
						tk.Sleep(100*sim.Microsecond, loop)
					})
				}
				loop()
			})
		}
		var done sim.Time
		n.Spawn("mon", func(tk *Task) {
			tk.Sleep(50*sim.Millisecond, func() {
				tk.Compute(100*sim.Microsecond, func() { done = eng.Now() - 50*sim.Millisecond })
			})
		})
		eng.RunUntil(sim.Second)
		return done
	}
	fifo, preempt := measure(false), measure(true)
	if preempt >= fifo {
		t.Fatalf("wake preemption should cut wake-to-run latency: fifo=%v preempt=%v",
			fifo, preempt)
	}
}

func TestSnapshotUtilMeanAndPending(t *testing.T) {
	s := Snapshot{NumCPU: 2}
	s.UtilPerMille[0] = 600
	s.UtilPerMille[1] = 400
	s.IrqPendingHard[1] = 2
	s.IrqPendingSoft[1] = 3
	if s.UtilMean() != 500 {
		t.Fatalf("UtilMean = %d", s.UtilMean())
	}
	var zero Snapshot
	if zero.UtilMean() != 0 {
		t.Fatal("zero snapshot should report 0 util")
	}
}

func TestConnFnFeedsSnapshot(t *testing.T) {
	eng, n := newTestNode(t, lightCfg())
	live := 0
	n.K.SetConnFn(func() int { return live })
	live = 5
	eng.RunUntil(sim.Millisecond)
	if got := n.K.Snapshot().Conns; got != 5 {
		t.Fatalf("snapshot conns = %d, want the live count 5", got)
	}
}

func TestStopHaltsTick(t *testing.T) {
	cfg := NodeDefaults()
	eng := sim.NewEngine(10)
	n := NewNode(eng, 0, cfg)
	eng.RunUntil(100 * sim.Millisecond)
	before := n.K.CumIRQHard(0)
	n.stop()
	eng.RunUntil(500 * sim.Millisecond)
	if n.K.CumIRQHard(0) != before {
		t.Fatal("timer tick survived stop")
	}
}

// TestCrashMidIRQKeepsServicePipeline pins what a crash does to
// interrupts already raised: nothing. The request in service and the
// one queued behind it complete on their original schedule, their
// softirq actions run, and the counters survive the restart.
func TestCrashMidIRQKeepsServicePipeline(t *testing.T) {
	eng, n := newTestNode(t, NodeDefaults()) // hard 3us, soft 12us, NIC line on CPU 1
	actions := 0
	at := func(d sim.Time, fn func()) { eng.Schedule(sim.Millisecond+d, fn) }
	pending := func(wantHard, wantSoft int) func() {
		return func() {
			t.Helper()
			if h, s := pendingIRQ(n, 1); h != wantHard || s != wantSoft {
				t.Errorf("at %v: pending = (%d, %d), want (%d, %d)", eng.Now(), h, s, wantHard, wantSoft)
			}
		}
	}
	at(0, func() {
		n.RaiseNetIRQ(func() { actions++ })
		n.RaiseNetIRQ(func() { actions++ })
	})
	at(1*sim.Microsecond, func() {
		n.Crash() // first hard handler in service, second queued
		pending(2, 0)()
		n.RaiseNetIRQ(func() { actions += 100 }) // a dead host raises nothing
	})
	at(4*sim.Microsecond, pending(1, 1)) // first hard done -> its softirq queued; second hard in service
	at(5*sim.Microsecond, n.Restart)
	at(7*sim.Microsecond, pending(0, 2))  // both softirqs wait; the first is in service
	at(19*sim.Microsecond, pending(0, 1)) // 6us + 12us: first action ran
	eng.RunUntil(2 * sim.Millisecond)
	pending(0, 0)()
	if actions != 2 {
		t.Fatalf("softirq actions ran %d times, want 2", actions)
	}
	if h, s := n.K.CumIRQHard(1), n.K.CumIRQSoft(1); h != 2 || s != 2 {
		t.Fatalf("CumIRQ on the NIC CPU = (%d hard, %d soft), want (2, 2)", h, s)
	}
}

// TestCrashExitsInSpawnOrder pins the order Crash kills a running task,
// a sleeper, a port waiter and an awaiter in: the order they were
// spawned. Exit runs no code of the task's, so the order shows only in
// the trace the task table's swap-removes leave: a dead task's idx is
// the slot it left the table from. Spawn order leaves 0, 1, 1, 0 on
// four tasks, and no other order of four does (the map the table
// replaced gave a random one).
func TestCrashExitsInSpawnOrder(t *testing.T) {
	eng, n := newTestNode(t, NodeDefaults())
	port := n.Port("rx")
	tasks := []*Task{
		n.Spawn("running", func(tk *Task) { tk.Compute(sim.Second, func() {}) }),
		n.Spawn("sleeper", func(tk *Task) { tk.Sleep(sim.Second, func() {}) }),
		n.Spawn("waiter", func(tk *Task) { tk.Recv(port, func(Message) {}) }),
		n.Spawn("awaiter", func(tk *Task) { tk.Await(func(any) {}) }),
	}
	eng.RunUntil(sim.Millisecond)
	for i, want := range []taskState{stateRunning, stateSleeping, stateBlocked, stateBlocked} {
		if tk := tasks[i]; tk.state != want || tk.idx != i || n.tasks[i] != tk {
			t.Fatalf("before the crash %s is %s at %d, want %s at %d", tk.Name, tk.state, tk.idx, want, i)
		}
	}
	n.Crash()
	for i, want := range []int{0, 1, 1, 0} {
		if tk := tasks[i]; tk.state != stateDead || tk.idx != want {
			t.Errorf("%s: %s, left the table from %d, want dead from %d", tk.Name, tk.state, tk.idx, want)
		}
	}
	if len(n.tasks) != 0 || n.nrRunnable != 0 || port.waiters.len() != 0 {
		t.Fatalf("after the crash: %d tasks, %d runnable, %d port waiters, want none", len(n.tasks), n.nrRunnable, port.waiters.len())
	}
}

// BenchmarkIdleNodeSecond advances 64 idle nodes one simulated second
// per iteration. Idle nodes park (DESIGN §6), so once parked a second
// costs them nothing at all.
func BenchmarkIdleNodeSecond(b *testing.B) {
	benchmarkNodeSecond(b, false)
}

// BenchmarkTickingNodeSecond is BenchmarkIdleNodeSecond with a task
// blocked on every node, which keeps it from parking: the cost of a
// fleet's timer ticks with nothing else running.
func BenchmarkTickingNodeSecond(b *testing.B) {
	benchmarkNodeSecond(b, true)
}

func benchmarkNodeSecond(b *testing.B, blocked bool) {
	const nodes = 64
	eng := sim.NewEngine(1)
	for i := 0; i < nodes; i++ {
		n := NewNode(eng, i, NodeDefaults())
		if blocked {
			n.Spawn("blocked", func(tk *Task) { tk.Recv(n.Port("unused"), func(Message) {}) })
		}
	}
	eng.RunFor(sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Second)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nodes, "ns/node-s")
}

// walkRunnable is NrRunnable the way it used to be computed: a walk of
// the task set. It survives as the reference for the counter.
func walkRunnable(n *Node) int {
	c := 0
	for _, t := range n.tasks {
		if t.state == stateReady || t.state == stateRunning {
			c++
		}
	}
	return c
}

// Property: through any mix of spawn, compute, sleep, recv, await,
// exit, preemption, freeze, crash and restart, the node's runnable
// counter equals the walk of its task set after every engine step.
func TestNrRunnableCounterMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		eng := sim.NewEngine(seed)
		n := NewNode(eng, 0, NodeDefaults())
		rng := eng.Rand()
		port := n.Port("p")
		var tasks []*Task

		var program func(tk *Task)
		program = func(tk *Task) {
			d := sim.Time(rng.Intn(30)+1) * sim.Millisecond / 4
			next := func() { program(tk) }
			switch rng.Intn(6) {
			case 0, 1:
				tk.Compute(d, next)
			case 2:
				tk.Sleep(d, next)
			case 3:
				tk.RecvTimeout(port, sim.Time(rng.Intn(2))*d, func(Message, bool) { next() })
			case 4:
				tk.Await(func(any) { next() })
			case 5:
				tk.Exit()
			}
		}
		spawn := func() {
			tk := n.Spawn("t", func(tk *Task) {
				tk.NoBoost = rng.Intn(2) == 0
				program(tk)
			})
			tasks = append(tasks, tk)
		}
		check := func(what string) {
			t.Helper()
			if got, want := int(n.nrRunnable), walkRunnable(n); got != want {
				t.Fatalf("seed %d at %v after %s: NrRunnable = %d, walk says %d", seed, eng.Now(), what, got, want)
			}
		}
		// The driver pokes the node from outside task context every
		// millisecond or so.
		var drive func()
		drive = func() {
			switch rng.Intn(10) {
			case 0, 1:
				if !n.Down() {
					spawn()
				}
			case 2, 3:
				port.Deliver(Message{})
			case 4, 5:
				tasks[rng.Intn(len(tasks))].Resume(nil)
			case 6:
				tasks[rng.Intn(len(tasks))].Exit()
			case 7:
				if n.frozen {
					n.Thaw()
				} else {
					n.Freeze()
				}
			case 8:
				if rng.Intn(4) == 0 {
					n.Crash()
				}
			case 9:
				n.Restart()
			}
			check("a driver action")
			eng.After(sim.Time(rng.Intn(2000)+1)*sim.Microsecond, drive)
		}
		for i := 0; i < 6; i++ {
			spawn()
		}
		eng.After(0, drive)
		sawRunnable := false
		for eng.Now() < 2*sim.Second && eng.Step() {
			check("a step")
			sawRunnable = sawRunnable || n.nrRunnable > 1
		}
		if !sawRunnable {
			t.Fatalf("seed %d: never more than one runnable task; the program exercises nothing", seed)
		}
		n.Crash()
		check("the final crash")
		if n.nrRunnable != 0 {
			t.Fatalf("seed %d: crashed node reports %d runnable tasks", seed, n.nrRunnable)
		}
	}
}
