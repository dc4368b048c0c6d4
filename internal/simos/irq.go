package simos

import "rdmamon/internal/sim"

type irqReq struct {
	hard   sim.Time
	soft   sim.Time
	action func()
}

// RaiseNetIRQ injects a network interrupt on the node's NIC-affine CPU
// (the paper's testbed routes the HCA's line to the second CPU, which
// is why RDMA-Sync observes more pending interrupts there). action
// runs in softirq context once the handler completes, typically
// delivering a packet to a port. Only two-sided traffic raises one:
// one-sided RDMA completes entirely on the NIC and never interrupts the
// target host, which is the paper's point.
func (n *Node) RaiseNetIRQ(action func()) {
	if n.down {
		return // a crashed host raises no interrupts
	}
	n.unpark()
	c := n.cpus[n.Cfg.NetIRQCPU]
	n.raiseIRQon(c, n.Cfg.NetIRQHard, n.Cfg.NetIRQSoft, action)
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
func (n *Node) raiseIRQon(c *cpu, hard, soft sim.Time, action func()) {
	c.irqHard++
	if soft > 0 {
		c.irqSoft++
	}
	c.hardQ.push(irqReq{hard: hard, soft: soft, action: action})
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

func (n *Node) pendingIRQ(c *cpu, v vticks) (hard, soft int) {
	hard, soft = c.hardQ.len(), c.softQ.len()
	if n.inService(c, v) {
		hard++
	}
	return hard, soft
}
