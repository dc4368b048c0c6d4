// Package simos models the operating system of a cluster node as seen
// by the paper's experiments: a small SMP machine running a Linux-2.4
// style scheduler.
//
// The model is deliberately mechanism-level rather than curve-fitted:
// probe latency, monitoring perturbation and load-report staleness all
// emerge from the same three mechanisms the paper attributes them to —
//
//  1. a woken process must wait for a CPU behind other recently-woken
//     (priority-boosted) processes;
//  2. interrupts are serviced before any user process runs; and
//  3. asynchronously calculated load information is up to one refresh
//     period old when read.
//
// Tasks are written in continuation-passing style (Compute / Sleep /
// Recv / Exit) so the whole node is driven by a single deterministic
// event engine (package sim).
package simos

import (
	"fmt"

	"rdmamon/internal/sim"
)

// MaxCPU is the largest per-node CPU count the kernel-statistics
// structures are sized for. The paper's testbed nodes are 2-way SMPs.
const MaxCPU = 8

// Config holds the tunable constants of the node model. NodeDefaults
// returns values calibrated against the paper's testbed (dual 2.4 GHz
// Xeon, Linux 2.4 / RedHat 9, HZ=100).
type Config struct {
	NumCPU int

	// Scheduler constants.
	Quantum       sim.Time // round-robin timeslice for CPU-bound tasks
	Tick          sim.Time // scheduler/timer tick period (HZ=100 -> 10ms)
	CtxSwitchCost sim.Time // charged when a CPU switches tasks
	BoostBudget   sim.Time // contiguous CPU a woken task may burn before losing its boost
	WakeCost      sim.Time // kernel cost of waking a sleeping task
	RecvCost      sim.Time // kernel->user copy cost when a task picks up a message

	// Syscall costs.
	ProcReadCost sim.Time // one read of /proc: fixed part (trap + formatting)
	// ProcReadPerTask is the per-task part of a /proc read: the 2.4
	// kernel walks the task list under lock to produce load and
	// process statistics, so reading /proc on a busy server costs
	// milliseconds, not microseconds. This is why fine-grained
	// /proc-based monitoring of a loaded node is so expensive
	// (paper §5.1.2, §5.2.2).
	ProcReadPerTask sim.Time

	// Interrupt costs.
	TimerIRQCost sim.Time // per timer tick per CPU
	NetIRQHard   sim.Time // top-half cost of a network interrupt
	NetIRQSoft   sim.Time // bottom-half (softirq) packet processing
	NetIRQCPU    int      // CPU the NIC's interrupt line is routed to

	// Kernel accounting.
	UtilWindow sim.Time // window for the CPU utilisation statistic
	MemTotalKB uint64
	MemBaseKB  uint64 // kernel + daemons resident at boot

	// AblationWakePreempt lets a newly woken task preempt peers in its
	// own priority band instead of queueing FIFO behind them. This is
	// NOT how the modeled 2.4 scheduler behaves; it exists to quantify
	// how much of the socket schemes' latency growth (Figure 3) is due
	// to same-band queueing (DESIGN.md ablation 1).
	AblationWakePreempt bool
}

// NodeDefaults returns the calibrated default configuration.
func NodeDefaults() Config {
	return Config{
		NumCPU:          2,
		Quantum:         50 * sim.Millisecond,
		Tick:            10 * sim.Millisecond,
		CtxSwitchCost:   5 * sim.Microsecond,
		BoostBudget:     8 * sim.Millisecond,
		WakeCost:        2 * sim.Microsecond,
		RecvCost:        4 * sim.Microsecond,
		ProcReadCost:    100 * sim.Microsecond,
		ProcReadPerTask: 60 * sim.Microsecond,
		TimerIRQCost:    1 * sim.Microsecond,
		NetIRQHard:      3 * sim.Microsecond,
		NetIRQSoft:      12 * sim.Microsecond,
		NetIRQCPU:       1,
		UtilWindow:      100 * sim.Millisecond,
		MemTotalKB:      1 << 20, // 1 GB
		MemBaseKB:       96 << 10,
	}
}

// sanitize fills zero fields with defaults. Cost fields use the
// convention: zero means "take the default", negative means
// "explicitly zero" (used by tests that want exact arithmetic).
func (c *Config) sanitize() {
	d := NodeDefaults()
	if c.NumCPU <= 0 {
		c.NumCPU = d.NumCPU
	}
	if c.NumCPU > MaxCPU {
		c.NumCPU = MaxCPU
	}
	if c.Quantum <= 0 {
		c.Quantum = d.Quantum
	}
	if c.Tick <= 0 {
		c.Tick = d.Tick
	}
	if c.BoostBudget <= 0 {
		c.BoostBudget = d.BoostBudget
	}
	if c.UtilWindow <= 0 {
		c.UtilWindow = d.UtilWindow
	}
	if c.MemTotalKB == 0 {
		c.MemTotalKB = d.MemTotalKB
	}
	if c.MemBaseKB == 0 {
		c.MemBaseKB = d.MemBaseKB
	}
	if c.NetIRQCPU == 0 {
		c.NetIRQCPU = d.NetIRQCPU
	}
	if c.NetIRQCPU >= c.NumCPU || c.NetIRQCPU < 0 {
		c.NetIRQCPU = c.NumCPU - 1
	}
	costs := []*sim.Time{
		&c.CtxSwitchCost, &c.WakeCost, &c.RecvCost, &c.ProcReadCost,
		&c.ProcReadPerTask, &c.TimerIRQCost, &c.NetIRQHard, &c.NetIRQSoft,
	}
	defs := []sim.Time{
		d.CtxSwitchCost, d.WakeCost, d.RecvCost, d.ProcReadCost,
		d.ProcReadPerTask, d.TimerIRQCost, d.NetIRQHard, d.NetIRQSoft,
	}
	for i, p := range costs {
		switch {
		case *p == 0:
			*p = defs[i]
		case *p < 0:
			*p = 0
		}
	}
}

// Node is one simulated cluster machine.
type Node struct {
	ID   int
	Eng  *sim.Engine
	Cfg  Config
	cpus []*cpu

	ready    [numBands]fifo[*Task]
	tasks    map[*Task]struct{}
	ports    map[string]*Port
	queueSeq uint64

	nrRunnable int // tasks ready or running; kept by Task.setState

	down   bool
	frozen bool

	K *KernelStats

	tick *sim.Ticker
}

// NewNode creates a node attached to eng. The configuration is
// sanitized (zero fields take defaults). The node's timer tick starts
// immediately.
func NewNode(eng *sim.Engine, id int, cfg Config) *Node {
	cfg.sanitize()
	n := &Node{
		ID:    id,
		Eng:   eng,
		Cfg:   cfg,
		tasks: make(map[*Task]struct{}),
		ports: make(map[string]*Port),
	}
	n.K = newKernelStats(n)
	for i := 0; i < cfg.NumCPU; i++ {
		c := &cpu{node: n, id: i, lastAccount: eng.Now()}
		c.hardDone, c.softDone = c.hardIRQDone, c.softIRQDone
		n.cpus = append(n.cpus, c)
	}
	n.tick = eng.NewTicker(cfg.Tick, n.onTick)
	return n
}

// Stop cancels the node's periodic timer work. Used by tests; long
// simulations normally just stop the engine.
func (n *Node) Stop() { n.tick.Stop() }

// Down reports whether the node has crashed and not yet restarted.
func (n *Node) Down() bool { return n.down }

// Frozen reports whether the node is in a freeze (slowdown) window.
func (n *Node) Frozen() bool { return n.frozen }

// Crash fails the node: every task dies, ports lose their queues and
// waiters, and the timer stops. The network model treats a down node as
// unreachable (packets vanish, RDMA completes with a transport error).
// Restart brings the machine back up empty; the caller is responsible
// for respawning its workload, like any real reboot.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true // gates resched while the task set is torn down
	victims := make([]*Task, 0, len(n.tasks))
	for t := range n.tasks {
		victims = append(victims, t)
	}
	for _, t := range victims {
		t.exit()
	}
	for _, p := range n.ports {
		p.queue = nil
		for _, w := range p.waiters {
			w.waitPort = nil
			w.waitFn = nil
		}
		p.waiters = nil
	}
	n.tick.Stop()
}

// Restart brings a crashed node back up with no tasks and fresh ports.
// Kernel counters (cumulative IRQ/context-switch totals) survive like
// warm-boot hardware counters; callers respawn the workload.
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.tick = n.Eng.NewTicker(n.Cfg.Tick, n.onTick)
	n.resched()
}

// Freeze stalls all user-level progress (a GC pause, an overcommitted
// hypervisor, a thermal throttle): running tasks are preempted and
// nothing is dispatched until Thaw. Interrupt handling and NIC-side
// RDMA service continue — which is exactly the asymmetry the paper
// exploits: one-sided probes still observe a frozen node.
func (n *Node) Freeze() {
	if n.frozen || n.down {
		return
	}
	n.frozen = true
	for _, c := range n.cpus {
		if c.cur != nil && !c.irqActive {
			n.preempt(c)
		}
	}
}

// Thaw lifts a Freeze and resumes scheduling.
func (n *Node) Thaw() {
	if !n.frozen {
		return
	}
	n.frozen = false
	n.resched()
}

// onTick is the timer interrupt: a small cost on every CPU plus the
// kernel's periodic accounting (utilisation sampling).
func (n *Node) onTick() {
	if n.Cfg.TimerIRQCost > 0 {
		for _, c := range n.cpus {
			n.raiseIRQon(c, IRQTimer, n.Cfg.TimerIRQCost, 0, nil)
		}
	}
	n.K.sampleUtil()
}

// NumCPU returns the number of CPUs on this node.
func (n *Node) NumCPU() int { return len(n.cpus) }

// Port returns the named port, creating it if necessary. Ports are the
// rendezvous between the network stack and tasks.
func (n *Node) Port(name string) *Port {
	if p, ok := n.ports[name]; ok {
		return p
	}
	p := &Port{node: n, name: name}
	n.ports[name] = p
	return p
}

// LookupPort returns the named port or nil.
func (n *Node) LookupPort(name string) *Port { return n.ports[name] }

// NrRunnable returns the number of tasks that are ready or running —
// the kernel's nr_running.
func (n *Node) NrRunnable() int { return n.nrRunnable }

// NrTasks returns the number of live tasks on the node.
func (n *Node) NrTasks() int { return len(n.tasks) }

func (n *Node) String() string { return fmt.Sprintf("node%d", n.ID) }
