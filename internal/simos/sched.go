package simos

import "rdmamon/internal/sim"

// accounting states for a CPU.
type accState int

const (
	accIdle accState = iota
	accUser
	accIRQ
)

// cpu is one processor of a node. A cpu runs at most one task; while
// it services interrupts the current task (if any) is paused in place.
type cpu struct {
	node *Node
	id   int

	cur       *Task
	irqActive bool
	hardQ     fifo[irqReq]
	softQ     fifo[irqReq]
	hardDone  func() // c.hardIRQDone, bound once
	softDone  func() // c.softIRQDone

	state       accState
	lastAccount sim.Time
	busyUser    sim.Time
	busyIRQ     sim.Time

	// Interrupts taken, and those of them with softirq work; a parked
	// node's virtual ticks are added on read (KernelStats.cumHard).
	irqHard uint64
	irqSoft uint64
}

func (c *cpu) account() {
	now := c.node.Eng.Now()
	d := now - c.lastAccount
	switch c.state {
	case accUser:
		c.busyUser += d
	case accIRQ:
		c.busyIRQ += d
	}
	c.lastAccount = now
}

func (c *cpu) setState(s accState) {
	c.account()
	c.state = s
}

// cumBusy returns total busy (user + interrupt) time including the
// in-progress interval.
func (c *cpu) cumBusy() sim.Time {
	c.account()
	return c.busyUser + c.busyIRQ
}

// --- ready queues -----------------------------------------------------

func (n *Node) wake(t *Task) {
	if t.state == stateDead || t.state == stateReady || t.state == stateRunning {
		return
	}
	band := bandBoost
	if t.NoBoost {
		band = bandNormal
	}
	t.band = band
	t.boostLeft = n.Cfg.BoostBudget
	t.setState(stateReady)
	t.Wakeups++
	if n.Cfg.AblationWakePreempt {
		// Jump the queue and evict a same-band peer if no CPU is free.
		n.ready[band].pushFront(t)
		n.resched()
		if t.state == stateReady {
			for _, c := range n.cpus {
				if !c.irqActive && c.cur != nil && c.cur.band <= band && c.cur != t {
					n.preempt(c)
					n.removeReady(t)
					n.dispatch(c, t)
					break
				}
			}
		}
		return
	}
	n.ready[band].push(t)
	n.resched()
}

func (n *Node) removeReady(t *Task) {
	q := &n.ready[t.band]
	for i, x := range q.all() {
		if x == t {
			q.removeAt(i)
			return
		}
	}
}

func (n *Node) highestReadyBand() int {
	for b := int(numBands) - 1; b >= 0; b-- {
		if n.ready[b].len() > 0 {
			return b
		}
	}
	return -1
}

func (n *Node) popHighest() *Task {
	for b := int(numBands) - 1; b >= 0; b-- {
		if q := &n.ready[b]; q.len() > 0 {
			return q.pop()
		}
	}
	return nil
}

// resched assigns ready tasks to idle CPUs and then applies cross-band
// preemption: a ready task in a higher band evicts the running task in
// the lowest band. Within a band there is no preemption (FIFO), which
// is the mechanism behind the paper's Figure 3. With nothing ready
// there is nothing to place, so it returns before touching a CPU.
func (n *Node) resched() {
	if n.down || n.frozen || n.highestReadyBand() < 0 {
		return // no dispatching on a dead or stalled machine, or with no task ready
	}
	for _, c := range n.cpus {
		if c.cur == nil && !c.irqActive {
			t := n.popHighest()
			if t == nil {
				break
			}
			n.dispatch(c, t)
		}
	}
	for {
		hb := n.highestReadyBand()
		if hb < 0 {
			return
		}
		var victim *cpu
		for _, c := range n.cpus {
			if c.irqActive || c.cur == nil {
				continue
			}
			if int(c.cur.band) < hb && (victim == nil || c.cur.band < victim.cur.band) {
				victim = c
			}
		}
		if victim == nil {
			return
		}
		n.preempt(victim)
		t := n.popHighest()
		if t == nil {
			return
		}
		n.dispatch(victim, t)
	}
}

func (n *Node) dispatch(c *cpu, t *Task) {
	t.setState(stateRunning)
	t.cpu = c
	c.cur = t
	c.setState(accUser)
	t.remaining = t.pendingBurst + n.Cfg.CtxSwitchCost
	t.burstDone = t.pendingCont
	t.pendingBurst = 0
	t.pendingCont = nil
	t.quantumLeft = n.Cfg.Quantum
	n.K.CtxSwitches++
	t.armBurst()
}

// chargeRun updates accounting for the interval since the task last
// (re)started running and resets the interval start.
func (t *Task) chargeRun() {
	now := t.node.Eng.Now()
	consumed := now - t.startedAt
	if consumed < 0 {
		consumed = 0
	}
	t.CPUTime += consumed
	t.remaining -= consumed
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.quantumLeft -= consumed
	if t.band == bandBoost {
		t.boostLeft -= consumed
	}
	t.startedAt = now
}

func (t *Task) cancelRunEvents() {
	t.doneTimer.Stop()
	t.sliceTimer.Stop()
}

// armBurst schedules either completion of the current burst or expiry
// of the current timeslice/boost budget, whichever comes first. The
// task must be running.
func (t *Task) armBurst() {
	t.cancelRunEvents()
	t.startedAt = t.node.Eng.Now()
	span := t.quantumLeft
	if t.band == bandBoost && t.boostLeft < span {
		span = t.boostLeft
	}
	if span < 0 {
		span = 0
	}
	if t.remaining <= span {
		t.doneTimer.Reset(t.remaining)
	} else {
		t.sliceTimer.Reset(span)
	}
}

func (t *Task) burstComplete() {
	t.chargeRun()
	t.demoteIfSpent()
	cont := t.burstDone
	t.burstDone = nil
	if cont != nil {
		cont()
	}
	// If the continuation issued no further operation the task is done.
	if t.state == stateRunning && !t.doneTimer.Pending() && !t.sliceTimer.Pending() && t.burstDone == nil {
		t.exit()
	}
}

func (t *Task) demoteIfSpent() {
	if t.band == bandBoost && t.boostLeft <= 0 {
		t.band = bandNormal
	}
}

// sliceExpire fires when the quantum or boost budget runs out before
// the burst completes: rotate if anyone of equal or higher priority is
// waiting, otherwise renew in place.
func (t *Task) sliceExpire() {
	t.chargeRun()
	t.demoteIfSpent()
	n := t.node
	if n.highestReadyBand() >= int(t.band) {
		c := t.cpu
		t.setState(stateReady)
		t.pendingBurst = t.remaining
		t.pendingCont = t.burstDone
		t.burstDone = nil
		t.remaining = 0
		t.cpu = nil
		n.ready[t.band].push(t)
		c.cur = nil
		c.setState(accIdle)
		n.resched()
		return
	}
	t.quantumLeft = n.Cfg.Quantum
	t.armBurst()
}

// preempt evicts the task running on c back to the head of its ready
// queue, preserving its in-progress burst.
func (n *Node) preempt(c *cpu) {
	t := c.cur
	t.cancelRunEvents()
	t.chargeRun()
	t.demoteIfSpent()
	t.setState(stateReady)
	t.pendingBurst = t.remaining
	t.pendingCont = t.burstDone
	t.burstDone = nil
	t.remaining = 0
	t.cpu = nil
	// Head of queue: a preempted task resumes before queued peers.
	n.ready[t.band].pushFront(t)
	c.cur = nil
	c.setState(accIdle)
}

// release detaches a running task from its CPU (used when the task
// blocks or exits). The caller sets the task's next state and triggers
// resched.
func (t *Task) release() {
	t.cancelRunEvents()
	t.chargeRun()
	t.demoteIfSpent()
	c := t.cpu
	t.cpu = nil
	t.remaining = 0
	t.burstDone = nil
	if c != nil {
		c.cur = nil
		if !c.irqActive {
			c.setState(accIdle)
		}
	}
}
