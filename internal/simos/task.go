package simos

import (
	"fmt"

	"rdmamon/internal/sim"
)

// Band is a scheduling priority band. Higher values run first. A task
// that wakes from sleep or I/O enters bandBoost (the Linux-2.4
// "interactive" bonus); if it then burns CPU continuously for longer
// than Config.BoostBudget it is demoted to bandNormal. Preemption
// happens only across bands — within a band service is FIFO, which is
// exactly why a woken monitoring process queues behind other
// recently-woken processes on a loaded server (paper §3, §5.1.1).
type Band int

const (
	bandNormal Band = iota
	bandBoost
	numBands
)

type taskState int

const (
	stateNew taskState = iota
	stateReady
	stateRunning
	stateSleeping
	stateBlocked
	stateDead
)

func (s taskState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateBlocked:
		return "blocked"
	case stateDead:
		return "dead"
	}
	return "?"
}

// Task is a simulated process/thread. Task programs are written in
// continuation-passing style: each operation (Compute, Sleep, Recv)
// takes a continuation invoked when the operation completes and the
// task again holds a CPU.
type Task struct {
	Name string

	node  *Node
	state taskState
	band  Band

	// NoBoost makes wakeups enqueue at bandNormal. Used by ablations
	// and by purely CPU-bound load generators.
	NoBoost bool

	// Execution state.
	cpu         *cpu
	remaining   sim.Time // remaining CPU in the current burst
	burstDone   func()
	startedAt   sim.Time
	quantumLeft sim.Time
	boostLeft   sim.Time
	queueSeq    uint64

	// The task's three deadlines, owned for life and re-armed in place:
	// completion of the current burst, expiry of its timeslice or boost
	// budget (at most one of the two is pending), and the end of a Sleep.
	doneTimer  *sim.Timer // fires t.burstComplete
	sliceTimer *sim.Timer // fires t.sliceExpire
	sleepTimer *sim.Timer // fires t.sleepExpire

	// Pending work set while not running (wake path).
	pendingBurst sim.Time
	pendingCont  func()

	// Blocking state.
	waitPort *Port
	waitFn   func(Message)
	awaitFn  func(any)
	sleepFn  func()         // continuation of the pending Sleep
	procFn   func(Snapshot) // continuation of the ReadProc in progress
	procRead func()         // t.readProc, bound once

	// Statistics.
	CPUTime     sim.Time
	Wakeups     uint64
	Preemptions uint64
}

// Node returns the node the task runs on.
func (t *Task) Node() *Node { return t.node }

// State description, for diagnostics.
func (t *Task) String() string {
	return fmt.Sprintf("%s/%s[%s]", t.node, t.Name, t.state)
}

// setState is the only writer of t.state after Spawn: it keeps the
// node's count of ready and running tasks beside the states, so
// NrRunnable does not walk the task set.
func (t *Task) setState(s taskState) {
	was := t.state == stateReady || t.state == stateRunning
	is := s == stateReady || s == stateRunning
	if is && !was {
		t.node.nrRunnable++
	} else if was && !is {
		t.node.nrRunnable--
	}
	t.state = s
}

// Alive reports whether the task has not exited.
func (t *Task) Alive() bool { return t.state != stateDead }

// Spawn creates a task and runs program immediately (at the current
// virtual time) to let it issue its first operation. A program that
// issues no operation exits immediately.
func (n *Node) Spawn(name string, program func(t *Task)) *Task {
	t := &Task{Name: name, node: n, state: stateNew}
	t.doneTimer = n.Eng.NewTimer(t.burstComplete)
	t.sliceTimer = n.Eng.NewTimer(t.sliceExpire)
	t.sleepTimer = n.Eng.NewTimer(t.sleepExpire)
	t.procRead = t.readProc
	n.tasks[t] = struct{}{}
	program(t)
	if t.state == stateNew { // issued nothing
		t.exit()
	}
	return t
}

// Compute consumes d of CPU time and then calls then. Called from a
// running task it extends the current dispatch; called from a non-
// running context (program start, wake continuation) it queues the
// burst for the next dispatch.
func (t *Task) Compute(d sim.Time, then func()) {
	if t.state == stateDead {
		return
	}
	if d < 0 {
		d = 0
	}
	if t.state == stateRunning {
		t.remaining = d
		t.burstDone = then
		t.armBurst()
		return
	}
	t.pendingBurst = d
	t.pendingCont = then
	if t.state == stateNew || t.state == stateSleeping || t.state == stateBlocked {
		// A fresh program's first op, or an op issued from a
		// continuation that ran in wake context: make runnable.
		t.node.wake(t)
	}
}

// Sleep blocks the task for d of virtual time, then reschedules it
// (with a wakeup boost) to run then. A task has one sleep deadline: a
// Sleep issued while an earlier one is still pending replaces it — the
// task wakes once, after the second d, into the second then.
func (t *Task) Sleep(d sim.Time, then func()) {
	if t.state == stateDead {
		return
	}
	if t.state == stateRunning {
		t.release()
	}
	t.setState(stateSleeping)
	t.sleepFn = then
	t.sleepTimer.Reset(d)
	t.node.resched()
}

func (t *Task) sleepExpire() {
	t.pendingBurst = t.node.Cfg.WakeCost
	t.pendingCont = t.sleepFn
	t.sleepFn = nil
	t.node.wake(t)
}

// Recv blocks the task until a message arrives on p, then runs
// then(msg). If a message is already queued the task still pays the
// kernel->user copy cost before then runs, but does not block.
func (t *Task) Recv(p *Port, then func(Message)) {
	if t.state == stateDead {
		return
	}
	if p.node != t.node {
		panic("simos: Recv on a port of another node")
	}
	if len(p.queue) > 0 {
		m := p.queue[0]
		p.queue = p.queue[1:]
		t.continueWith(t.node.Cfg.RecvCost, func() { then(m) })
		return
	}
	if t.state == stateRunning {
		t.release()
	}
	t.setState(stateBlocked)
	t.waitPort = p
	t.waitFn = then
	p.waiters = append(p.waiters, t)
	t.node.resched()
}

// RecvTimeout blocks the task until a message arrives on p or d of
// virtual time passes, whichever is first. then runs with ok=false on
// timeout (the socket read deadline of the simulated world). A
// non-positive d means no deadline.
func (t *Task) RecvTimeout(p *Port, d sim.Time, then func(m Message, ok bool)) {
	if d <= 0 {
		t.Recv(p, func(m Message) { then(m, true) })
		return
	}
	var timeoutEv *sim.Event
	timeoutEv = t.node.Eng.After(d, func() {
		if t.state != stateBlocked || t.waitPort != p {
			return // already delivered (or task gone)
		}
		p.removeWaiter(t)
		t.waitPort = nil
		t.waitFn = nil
		t.pendingBurst = 0
		t.pendingCont = func() { then(Message{}, false) }
		t.node.wake(t)
	})
	t.Recv(p, func(m Message) {
		t.node.Eng.Cancel(timeoutEv)
		then(m, true)
	})
}

// continueWith keeps a running task on its CPU for an extra burst, or
// queues the burst if the task is not running.
func (t *Task) continueWith(burst sim.Time, cont func()) {
	if t.state == stateRunning {
		t.remaining = burst
		t.burstDone = cont
		t.armBurst()
		return
	}
	t.pendingBurst = burst
	t.pendingCont = cont
	if t.state != stateReady {
		t.node.wake(t)
	}
}

// Await parks the task until Resume is called with a value. It is the
// primitive under completion-queue style waits (e.g. an RDMA read
// posted by the task completing on the NIC). Unlike Recv there is no
// kernel copy cost: user-level completion polling bypasses the kernel.
func (t *Task) Await(then func(v any)) {
	if t.state == stateDead {
		return
	}
	if t.state == stateRunning {
		t.release()
	}
	t.setState(stateBlocked)
	t.awaitFn = then
	t.node.resched()
}

// Resume unblocks a task parked in Await. Calling Resume on a task
// that is not awaiting is a no-op (e.g. the task exited).
func (t *Task) Resume(v any) {
	if t.state != stateBlocked || t.awaitFn == nil {
		return
	}
	fn := t.awaitFn
	t.awaitFn = nil
	t.pendingBurst = 0
	t.pendingCont = func() { fn(v) }
	t.node.wake(t)
}

// Exit terminates the task.
func (t *Task) Exit() { t.exit() }

func (t *Task) exit() {
	if t.state == stateDead {
		return
	}
	if t.state == stateRunning {
		t.release()
	}
	t.sleepTimer.Stop()
	t.sleepFn, t.procFn = nil, nil
	if t.waitPort != nil {
		t.waitPort.removeWaiter(t)
		t.waitPort = nil
	}
	t.awaitFn = nil
	if t.state == stateReady {
		t.node.removeReady(t)
	}
	t.setState(stateDead)
	delete(t.node.tasks, t)
	t.node.resched()
}

// ReadProc performs the /proc "syscall": it costs ProcReadCost of CPU
// in the caller's context and delivers a snapshot of the kernel
// statistics taken at completion time.
//
// Pending-interrupt visibility mirrors a Linux-2.4 kernel: a process
// only regains the CPU after the interrupts on that CPU are serviced,
// so its own CPU's pending counts always read as zero; and bottom
// halves are globally serialized, so by the time process context runs,
// soft-pending work on *every* CPU has drained. Only hard interrupts
// queued on other CPUs remain observable. This is the §5.1.4 effect:
// user-space samplers structurally under-report interrupt activity,
// while an RDMA read (which never enters process context on this node)
// sees the live irq_stat.
func (t *Task) ReadProc(then func(Snapshot)) {
	if t.state == stateDead {
		return
	}
	node := t.node
	cost := node.Cfg.ProcReadCost + node.Cfg.ProcReadPerTask*sim.Time(node.NrTasks())
	t.procFn = then
	t.Compute(cost, t.procRead)
}

// readProc completes ReadProc. A task runs one operation at a time, so
// the continuation parked in procFn is the one this burst belongs to.
func (t *Task) readProc() {
	then := t.procFn
	t.procFn = nil
	s := t.node.K.Snapshot()
	for c := 0; c < s.NumCPU; c++ {
		s.IrqPendingSoft[c] = 0
	}
	if t.cpu != nil {
		s.IrqPendingHard[t.cpu.id] = 0
	}
	then(s)
}

// Message is a unit of delivery between tasks (possibly across nodes,
// via simnet).
type Message struct {
	From    int // originating node ID
	Size    int // bytes on the wire
	Payload any
	SentAt  sim.Time
}

// Port is a named mailbox on a node. Any number of tasks may block on
// a port (like a worker pool blocked in accept); messages go to the
// longest-waiting task.
type Port struct {
	node    *Node
	name    string
	queue   []Message
	waiters []*Task
}

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// QueueLen returns the number of undelivered messages.
func (p *Port) QueueLen() int { return len(p.queue) }

// Drain discards all buffered messages, returning how many were
// dropped. Probers use it to flush replies that arrived after their
// deadline, so a late answer is never mistaken for a fresh one.
func (p *Port) Drain() int {
	n := len(p.queue)
	p.queue = nil
	return n
}

// Deliver hands a message to the port: if a task is blocked on the
// port it becomes runnable (with a wakeup boost); otherwise the
// message is buffered. Deliver is called from interrupt (softirq)
// context by the network model, or directly for local IPC.
func (p *Port) Deliver(m Message) {
	if len(p.waiters) == 0 {
		p.queue = append(p.queue, m)
		return
	}
	t := p.waiters[0]
	p.waiters = p.waiters[1:]
	t.waitPort = nil
	fn := t.waitFn
	t.waitFn = nil
	t.pendingBurst = p.node.Cfg.RecvCost
	t.pendingCont = func() { fn(m) }
	p.node.wake(t)
}

// removeWaiter detaches an exiting task from the port's wait list.
func (p *Port) removeWaiter(t *Task) {
	for i, w := range p.waiters {
		if w == t {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return
		}
	}
}
