// Package faults is a deterministic fault-injection subsystem for the
// simulated cluster: a seeded Plan describes per-link message loss
// and delay, network partitions, node crash/restart and
// freeze (slowdown) windows, and memory-region invalidations; an
// Injector executes the plan against a simnet.Fabric and simos nodes.
//
// Everything is driven by the simulation engine and a rand stream
// seeded from the plan, so a run under a fault plan is exactly as
// reproducible as a run without one — the property the determinism
// golden tests lock down.
package faults

import (
	"math/rand"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

// Any is the wildcard node ID in a LinkFault endpoint.
const Any = int(-1 << 30)

// LinkFault perturbs messages and RDMA operations on a directed link
// (From -> To, with Any as a wildcard on either side) during a window.
type LinkFault struct {
	From, To int
	Start    sim.Time // window start (inclusive)
	End      sim.Time // window end; <= 0 means forever

	Drop      float64  // per-attempt loss probability
	DelayProb float64  // probability of adding extra latency
	DelayMin  sim.Time // extra latency bounds (uniform)
	DelayMax  sim.Time
}

func (l LinkFault) matches(from, to int, now sim.Time) bool {
	if l.From != Any && l.From != from {
		return false
	}
	if l.To != Any && l.To != to {
		return false
	}
	if now < l.Start {
		return false
	}
	return l.End <= 0 || now < l.End
}

// Partition makes groups A and B mutually unreachable during a window
// (messages vanish, RDMA completes with a transport timeout).
type Partition struct {
	Start, End sim.Time
	A, B       []int
}

func (p Partition) severs(from, to int, now sim.Time) bool {
	if now < p.Start || (p.End > 0 && now >= p.End) {
		return false
	}
	return (contains(p.A, from) && contains(p.B, to)) ||
		(contains(p.B, from) && contains(p.A, to))
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Crash fails a node at At; RestartAt <= At means it never comes back.
type Crash struct {
	Node          int
	At, RestartAt sim.Time
}

// Freeze stalls a node's user-level progress during [At, Until).
type Freeze struct {
	Node      int
	At, Until sim.Time
}

// MRInvalidation revokes the registered memory regions of a node's
// monitoring agent at At (the "remote key went stale" failure mode:
// page unpinned, agent re-registered, key rotated).
type MRInvalidation struct {
	Node int
	At   sim.Time
}

// DialStorm degrades connection establishment toward Target (Any =
// every target) during a window: dial attempts are refused with
// probability Refuse (listener backlog overrun) and/or delayed —
// the failure mode a thundering herd of monitors inflicts on a
// restarting fleet. Only the pooled dial path consults it; one-sided
// data traffic is unaffected.
type DialStorm struct {
	Target     int
	Start, End sim.Time
	Refuse     float64
	DelayProb  float64
	DelayMin   sim.Time
	DelayMax   sim.Time
}

func (d DialStorm) matches(target int, now sim.Time) bool {
	if d.Target != Any && d.Target != target {
		return false
	}
	if now < d.Start {
		return false
	}
	return d.End <= 0 || now < d.End
}

// FDClamp caps Node's file descriptors to Limit during [Start, End)
// — the fd-exhaustion regime: new dials fail with ErrFDLimit while
// established connections keep working. End <= 0 means forever.
type FDClamp struct {
	Node       int
	Start, End sim.Time
	Limit      int
}

// ListenerReset bounces Node's accept path at At: every established
// QP targeting it goes to the error state (simnet.Fabric.ResetListener),
// forcing initiators through the epoch fence and a redial.
type ListenerReset struct {
	Node int
	At   sim.Time
}

// Plan is a complete, seeded fault schedule.
type Plan struct {
	Seed            int64
	Links           []LinkFault
	Partitions      []Partition
	Crashes         []Crash
	Freezes         []Freeze
	MRInvalidations []MRInvalidation
	// Connection-lifecycle phases (consulted only by the pooled dial
	// path, so plans without them replay bit-identically).
	DialStorms     []DialStorm
	FDClamps       []FDClamp
	ListenerResets []ListenerReset
}

// Injector executes a Plan: it implements simnet.FaultModel for the
// fabric and schedules the node-level events on the engine.
type Injector struct {
	eng  *sim.Engine
	rng  *rand.Rand
	plan Plan

	// Optional application-level hooks, called after the node-level
	// state change (so a crashed node is already Down when OnCrash
	// runs). The cluster layer uses them to kill and respawn servers
	// and monitoring agents.
	OnCrash        func(node int)
	OnRestart      func(node int)
	OnMRInvalidate func(node int)

	// CrashEvents counts the plan's crashes fired so far.
	CrashEvents uint64
}

// NewInjector builds an injector for plan on eng. Call Install to arm
// it.
func NewInjector(eng *sim.Engine, plan Plan) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = 0x5fa17 // arbitrary fixed default: still deterministic
	}
	return &Injector{eng: eng, rng: rand.New(rand.NewSource(seed)), plan: plan}
}

// Install wires the injector into the fabric and schedules every
// node-level event of the plan against nodes (keyed by node ID; nodes
// absent from the map are skipped — their link faults still apply).
func (in *Injector) Install(fab *simnet.Fabric, nodes map[int]*simos.Node) {
	fab.SetFaults(in)
	now := in.eng.Now()
	at := func(t sim.Time, fn func()) {
		d := t - now
		if d < 0 {
			d = 0
		}
		in.eng.After(d, fn)
	}
	for _, c := range in.plan.Crashes {
		c := c
		n := nodes[c.Node]
		if n == nil {
			continue
		}
		at(c.At, func() {
			in.CrashEvents++
			n.Crash()
			if in.OnCrash != nil {
				in.OnCrash(c.Node)
			}
		})
		if c.RestartAt > c.At {
			at(c.RestartAt, func() {
				n.Restart()
				if in.OnRestart != nil {
					in.OnRestart(c.Node)
				}
			})
		}
	}
	for _, fz := range in.plan.Freezes {
		n := nodes[fz.Node]
		if n == nil {
			continue
		}
		at(fz.At, n.Freeze)
		if fz.Until > fz.At {
			at(fz.Until, n.Thaw)
		}
	}
	for _, mi := range in.plan.MRInvalidations {
		mi := mi
		at(mi.At, func() {
			if in.OnMRInvalidate != nil {
				in.OnMRInvalidate(mi.Node)
			}
		})
	}
	for _, cl := range in.plan.FDClamps {
		cl := cl
		nic := fab.NIC(cl.Node)
		if nic == nil {
			continue
		}
		var prev int
		at(cl.Start, func() {
			prev = nic.FDLimit()
			nic.SetFDLimit(cl.Limit)
		})
		if cl.End > cl.Start {
			at(cl.End, func() { nic.SetFDLimit(prev) })
		}
	}
	for _, lr := range in.plan.ListenerResets {
		lr := lr
		at(lr.At, func() { fab.ResetListener(lr.Node) })
	}
}

// partitioned reports whether a partition currently severs from->to.
func (in *Injector) partitioned(from, to int) bool {
	now := in.eng.Now()
	for _, p := range in.plan.Partitions {
		if p.severs(from, to, now) {
			return true
		}
	}
	return false
}

// Channel implements simnet.FaultModel for channel-semantics traffic.
func (in *Injector) Channel(from, dst, size int) simnet.ChannelVerdict {
	if in.partitioned(from, dst) {
		return simnet.ChannelVerdict{Drop: true}
	}
	var v simnet.ChannelVerdict
	now := in.eng.Now()
	for _, l := range in.plan.Links {
		if !l.matches(from, dst, now) {
			continue
		}
		if l.Drop > 0 && in.rng.Float64() < l.Drop {
			return simnet.ChannelVerdict{Drop: true}
		}
		if l.DelayProb > 0 && in.rng.Float64() < l.DelayProb {
			v.Delay += l.delay(in.rng)
		}
	}
	return v
}

// RDMA implements simnet.FaultModel for one-sided operations. The
// reliable-connection transport retries loss in hardware, so a lossy
// link turns into failure only when the drop survives the whole retry
// budget — modeled as drop^3 — while partitions always fail.
func (in *Injector) RDMA(from, target int) simnet.RDMAVerdict {
	if in.partitioned(from, target) {
		return simnet.RDMAVerdict{Fail: true}
	}
	var v simnet.RDMAVerdict
	now := in.eng.Now()
	for _, l := range in.plan.Links {
		if !l.matches(from, target, now) {
			continue
		}
		if l.Drop > 0 {
			p := l.Drop * l.Drop * l.Drop
			if in.rng.Float64() < p {
				return simnet.RDMAVerdict{Fail: true}
			}
			// Surviving loss still costs hardware retries' latency.
			if in.rng.Float64() < l.Drop {
				v.Delay += 2 * sim.Millisecond
			}
		}
		if l.DelayProb > 0 && in.rng.Float64() < l.DelayProb {
			v.Delay += l.delay(in.rng)
		}
	}
	return v
}

// Dial implements simnet.DialFaulter. A partition refuses dials (the
// CM request never gets through); dial storms refuse or delay them
// probabilistically. Plans without DialStorms draw no randomness
// here, so historical runs replay bit-identically.
func (in *Injector) Dial(from, target int) simnet.DialVerdict {
	if in.partitioned(from, target) {
		return simnet.DialVerdict{Refuse: true}
	}
	var v simnet.DialVerdict
	now := in.eng.Now()
	for _, s := range in.plan.DialStorms {
		if !s.matches(target, now) {
			continue
		}
		if s.Refuse > 0 && in.rng.Float64() < s.Refuse {
			return simnet.DialVerdict{Refuse: true}
		}
		if s.DelayProb > 0 && in.rng.Float64() < s.DelayProb {
			if s.DelayMax > s.DelayMin {
				v.Delay += s.DelayMin + sim.Time(in.rng.Int63n(int64(s.DelayMax-s.DelayMin)))
			} else {
				v.Delay += s.DelayMin
			}
		}
	}
	return v
}

func (l LinkFault) delay(rng *rand.Rand) sim.Time {
	if l.DelayMax <= l.DelayMin {
		return l.DelayMin
	}
	return l.DelayMin + sim.Time(rng.Int63n(int64(l.DelayMax-l.DelayMin)))
}
