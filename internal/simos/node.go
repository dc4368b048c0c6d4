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
	"cmp"
	"fmt"
	"slices"
	"sync"

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

// configs interns sanitized configurations: every node built from an
// equal one shares one copy, so a fleet holds one Config, not one per
// node. Configs are few and never change once interned.
var configs = struct {
	sync.Mutex
	m map[Config]*Config
}{m: map[Config]*Config{}}

// intern returns the shared copy of c; a lookup allocates nothing.
func intern(c Config) *Config {
	configs.Lock()
	defer configs.Unlock()
	p := configs.m[c]
	if p == nil {
		p = new(Config)
		*p = c
		configs.m[c] = p
	}
	return p
}

// Node is one simulated cluster machine.
type Node struct {
	ID   int
	Eng  *sim.Engine
	Cfg  *Config // shared by every node built from an equal Config: read only
	cpus []*cpu

	ready [numBands]fifo[*Task]
	// tasks are the live tasks, each at its Task.idx; ports are sorted
	// by name. A back-end whose only monitoring is a registered region
	// has neither.
	tasks []*Task
	ports []*Port

	K *KernelStats

	tick *sim.Ticker

	nrRunnable int32 // tasks ready or running; kept by Task.setState

	// down, frozen and parked share a word with nrRunnable: a Node
	// stays in the 192-byte size class.
	down   bool
	frozen bool

	// A parked node's ticker is stopped and its ticks after the one it
	// parked at (p0, the newest utilisation row's instant) exist only in
	// closed form (DESIGN §6): readers see them through catchUp, a wake
	// materialises them. key1 is the sequence key the first virtual tick
	// would have had.
	parked bool
	key1   uint64
}

// NewNode creates a node attached to eng. The configuration is
// sanitized (zero fields take defaults). The node's timer tick starts
// immediately.
func NewNode(eng *sim.Engine, id int, cfg Config) *Node {
	cfg.sanitize()
	n := &Node{ID: id, Eng: eng, Cfg: intern(cfg)}
	n.K = newKernelStats(n)
	for i := 0; i < cfg.NumCPU; i++ {
		c := &cpu{node: n, id: i, lastAccount: eng.Now()}
		c.hardDone, c.softDone = c.hardIRQDone, c.softIRQDone
		n.cpus = append(n.cpus, c)
	}
	n.tick = eng.NewTicker(cfg.Tick, n.onTick)
	return n
}

// stop cancels the node's periodic timer work, virtual ticks included.
// Only tests and the parked-twin fuzzer call it; long simulations just
// stop the engine.
func (n *Node) stop() {
	n.unpark()
	n.tick.Stop()
}

// Down reports whether the node has crashed and not yet restarted.
func (n *Node) Down() bool { return n.down }

// Crash fails the node: every task dies, ports lose their queues and
// waiters, and the timer stops. The network model treats a down node as
// unreachable (packets vanish, RDMA completes with a transport error).
// Restart brings the machine back up empty; the caller is responsible
// for respawning its workload, like any real reboot.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.unpark()
	n.down = true // gates resched while the task set is torn down
	// In spawn order: each exit swap-removes from the table, so walk a
	// copy of it.
	for _, t := range slices.Clone(n.tasks) {
		t.exit()
	}
	for _, p := range n.ports {
		p.queue = fifo[Message]{}
		for _, w := range p.waiters.all() {
			w.waitPort = nil
			w.waitFn = nil
		}
		p.waiters = fifo[*Task]{}
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
	n.unpark()
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
// kernel's periodic accounting (utilisation sampling). A tick that
// finds the node quiescent parks it once the tick's own work is done.
func (n *Node) onTick() {
	quiet := n.quiescent()
	if n.Cfg.TimerIRQCost > 0 {
		for _, c := range n.cpus {
			n.raiseIRQon(c, n.Cfg.TimerIRQCost, 0, nil)
		}
	}
	n.K.sampleUtil()
	if quiet {
		n.tick.Stop()
		n.parked, n.key1 = true, n.Eng.Reserve()
	}
}

// p0 is the instant a parked node parked at: its last real tick, whose
// utilisation row stays the newest until the node wakes.
func (n *Node) p0() sim.Time { return n.K.newestRow()[0] }

// quiescent reports whether the node's future ticks have a closed form:
// no task, so no CPU runs one, and no interrupt queued or in service.
// A tick's interrupt must also end before the next tick.
func (n *Node) quiescent() bool {
	if len(n.tasks) > 0 || n.Cfg.TimerIRQCost >= n.Cfg.Tick {
		return false
	}
	for _, c := range n.cpus {
		if c.irqActive {
			return false
		}
	}
	return true
}

// vticks is how far a parked node's virtual ticks have got at the
// current position: n ticks after p0 have fired, the last at last.
// The zero value means none (or the node is ticking).
type vticks struct {
	n    int64
	last sim.Time
}

// catchUp returns the virtual ticks a parked node has taken by the
// current position of the engine, in O(1). Virtual tick k (at p0+k·Tick)
// was enqueued by tick k−1 after its interrupts; a reader at exactly
// that instant sees it fired iff the reader's key is the larger one
// (DESIGN §6, same-instant rule).
func (n *Node) catchUp() vticks {
	if !n.parked {
		return vticks{}
	}
	now, p0 := n.Eng.Now(), n.p0()
	k := int64((now - p0) / n.Cfg.Tick)
	last := p0 + sim.Time(k)*n.Cfg.Tick
	if k > 0 && last == now && !n.Eng.Fired(now, n.tickKey(p0, k)) {
		k--
		last -= n.Cfg.Tick
	}
	return vticks{n: k, last: last}
}

// tickKey is the sequence key of virtual tick k >= 1 after a park at
// p0: the one reserved at park time for the first, and for later ones
// the rank after the interrupt completions the previous tick enqueued.
func (n *Node) tickKey(p0 sim.Time, k int64) uint64 {
	if k == 1 {
		return n.key1
	}
	return sim.KeyAt(p0+sim.Time(k-1)*n.Cfg.Tick, len(n.cpus))
}

// inService reports whether the timer interrupt of the last virtual
// tick is still being serviced on c: before its completion instant, or
// at it with the completion (keyed by the CPU's rank at the tick's
// instant) not yet fired.
func (n *Node) inService(c *cpu, v vticks) bool {
	if v.n == 0 || n.Cfg.TimerIRQCost == 0 {
		return false
	}
	end := v.last + n.Cfg.TimerIRQCost
	now := n.Eng.Now()
	return now < end || now == end && !n.Eng.Fired(end, sim.KeyAt(v.last, c.id))
}

// busy returns c's cumulative busy time including the virtual ticks'
// interrupt service up to now.
func (n *Node) busy(c *cpu, v vticks) sim.Time {
	b := c.cumBusy() + sim.Time(v.n)*n.Cfg.TimerIRQCost
	if end := v.last + n.Cfg.TimerIRQCost; v.n > 0 && n.Eng.Now() < end {
		b -= end - n.Eng.Now()
	}
	return b
}

// unpark makes a parked node tick for real again: the virtual ticks'
// interrupt counts, busy time and utilisation samples become state, a
// timer interrupt still in service is materialised with its remaining
// time, and the ticker resumes at the original phase with the key the
// next virtual tick would have had.
func (n *Node) unpark() {
	if !n.parked {
		return
	}
	v, p0 := n.catchUp(), n.p0()
	n.parked = false
	if v.n > 0 {
		cost := n.Cfg.TimerIRQCost
		for _, c := range n.cpus {
			busy := n.busy(c, v)
			if cost > 0 {
				c.irqHard += uint64(v.n)
			}
			if n.inService(c, v) {
				c.hardQ.push(irqReq{hard: cost})
				c.irqActive = true
				c.state = accIRQ
				n.Eng.PostKeyed(v.last+cost, sim.KeyAt(v.last, c.id), c.hardDone)
			}
			c.busyIRQ += busy - c.cumBusy()
		}
		n.K.replayUtil(p0, v)
	}
	next := v.n + 1
	n.tick.ResumeKeyed(p0+sim.Time(next)*n.Cfg.Tick, n.tickKey(p0, next))
}

// NumCPU returns the number of CPUs on this node.
func (n *Node) NumCPU() int { return len(n.cpus) }

// Port returns the named port, creating it if necessary. Ports are the
// rendezvous between the network stack and tasks.
func (n *Node) Port(name string) *Port {
	i, ok := n.findPort(name)
	if !ok {
		n.ports = slices.Insert(n.ports, i, &Port{node: n, name: name})
	}
	return n.ports[i]
}

// LookupPort returns the named port or nil.
func (n *Node) LookupPort(name string) *Port {
	if i, ok := n.findPort(name); ok {
		return n.ports[i]
	}
	return nil
}

// findPort returns where the named port is in ports, or would be.
func (n *Node) findPort(name string) (int, bool) {
	return slices.BinarySearchFunc(n.ports, name, func(p *Port, name string) int { return cmp.Compare(p.name, name) })
}

func (n *Node) String() string { return fmt.Sprintf("node%d", n.ID) }
