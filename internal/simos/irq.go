package simos

import "rdmamon/internal/sim"

// IRQKind identifies the interrupt source, mirroring the lines the
// paper's irq_stat experiment distinguishes.
type IRQKind int

const (
	// IRQTimer is the periodic scheduler tick.
	IRQTimer IRQKind = iota
	// IRQNet is a network adapter interrupt (two-sided traffic only —
	// one-sided RDMA completes entirely on the NIC and never raises
	// an interrupt on the target host; that is the paper's point).
	IRQNet
)

type irqReq struct {
	kind   IRQKind
	hard   sim.Time
	soft   sim.Time
	action func()
}

// RaiseNetIRQ injects a network interrupt on the node's NIC-affine CPU
// (the paper's testbed routes the HCA's line to the second CPU, which
// is why RDMA-Sync observes more pending interrupts there). action
// runs in softirq context once the handler completes, typically
// delivering a packet to a port.
func (n *Node) RaiseNetIRQ(action func()) {
	if n.down {
		return // a crashed host raises no interrupts
	}
	c := n.cpus[n.Cfg.NetIRQCPU]
	n.raiseIRQon(c, IRQNet, n.Cfg.NetIRQHard, n.Cfg.NetIRQSoft, action)
}

// raiseIRQon queues an interrupt on a specific CPU. If the CPU is not
// already in interrupt context the current task is paused and service
// starts immediately: interrupts always win over user processes, which
// is why user-space samplers observe mostly-drained pending counts
// (paper §5.1.4).
//
// Service follows the Linux-2.4 two-phase structure: quick hard
// handlers drain first (newly arrived hard interrupts preempt soft
// processing), and each hard completion enqueues the packet's softirq
// (bottom-half) work, where the real backlog accumulates under bursty
// traffic.
func (n *Node) raiseIRQon(c *cpu, kind IRQKind, hard, soft sim.Time, action func()) {
	n.K.CumIRQHard[c.id]++
	if soft > 0 {
		n.K.CumIRQSoft[c.id]++
	}
	c.hardQ.push(irqReq{kind: kind, hard: hard, soft: soft, action: action})
	if !c.irqActive {
		c.irqActive = true
		if t := c.cur; t != nil {
			t.cancelRunEvents()
			t.chargeRun()
		}
		c.setState(accIRQ)
		c.serviceNextIRQ()
	}
}

// serviceNextIRQ starts the service interval of the request at the
// head of the hard queue, else of the soft queue. The completions are
// the cpu's two pre-bound funcs and read the head again when they
// fire: it cannot change in between, since raises append and only a
// completion pops.
func (c *cpu) serviceNextIRQ() {
	if c.hardQ.len() > 0 {
		c.node.Eng.Post(c.hardQ.front().hard, c.hardDone)
		return
	}
	if c.softQ.len() > 0 {
		c.node.Eng.Post(c.softQ.front().soft, c.softDone)
		return
	}
	c.irqActive = false
	c.resumeFromIRQ()
}

func (c *cpu) hardIRQDone() {
	req := c.hardQ.pop()
	if req.soft > 0 || req.action != nil {
		c.softQ.push(req)
	}
	c.serviceNextIRQ()
}

func (c *cpu) softIRQDone() {
	req := c.softQ.pop()
	if req.action != nil {
		req.action()
	}
	c.serviceNextIRQ()
}

func (c *cpu) resumeFromIRQ() {
	if c.node.frozen && c.cur != nil {
		// The machine stalled while this CPU was in interrupt context:
		// the paused task goes back to its queue instead of resuming.
		// Interrupt time is not the task's — reset its charge interval.
		c.cur.startedAt = c.node.Eng.Now()
		c.node.preempt(c)
	}
	if t := c.cur; t != nil {
		t.demoteIfSpent()
		c.setState(accUser)
		t.armBurst()
	} else {
		c.setState(accIdle)
	}
	c.node.resched()
}

// PendingIRQ returns the number of hard and soft interrupts pending
// (queued or in service) on the given CPU — the observable the paper
// reads from irq_stat.
func (n *Node) PendingIRQ(cpuID int) (hard, soft int) {
	if cpuID < 0 || cpuID >= len(n.cpus) {
		return 0, 0
	}
	c := n.cpus[cpuID]
	return c.hardQ.len(), c.softQ.len()
}
