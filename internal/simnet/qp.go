// QP/fd resource model: connection establishment as a first-class,
// budgeted resource.
//
// The base fabric routes one-sided operations by (target, key) alone,
// which models the data path but hides the control-plane cost that
// dominates at scale: every monitored back-end needs a connected
// queue pair, each QP holds a file descriptor (the CM event channel /
// socket on the emulated path), and dial attempts burn initiator CPU
// and fabric round trips. RDMAvisor's observation is that at O(10k)
// peers these resources — not the reads — become the bottleneck.
//
// This file gives the initiator NIC that missing accounting: Dial
// establishes a QP (consuming an fd for its lifetime), CloseQP
// releases it, SetFDLimit models per-process fd exhaustion, and
// Fabric.ResetListener models a back-end's listener restarting (all
// QPs targeting it transition to the error state, as a real CM
// teardown would force). The connpool layer above turns QP death into
// an epoch bump so no stale read is ever served.
package simnet

import (
	"errors"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

// Dial-path errors.
var (
	// ErrFDLimit: the initiating process is out of file descriptors —
	// the dial fails locally, before anything crosses the wire.
	ErrFDLimit = errors.New("simnet: file descriptor budget exhausted")
	// ErrRefused: the target refused the connection request (listener
	// backlog overrun during a dial storm, or listener down).
	ErrRefused = errors.New("simnet: connection refused")
)

// DialVerdict is a fault model's decision about one dial attempt.
type DialVerdict struct {
	Refuse bool     // reject the connection request at the target
	Delay  sim.Time // extra connection-manager latency
}

// DialFaulter is an optional extension of FaultModel: a fault model
// that also implements it perturbs connection establishment. Checked
// by type assertion so existing fault models keep working unchanged.
type DialFaulter interface {
	Dial(from, target int) DialVerdict
}

// QP is a connected queue pair from an initiator NIC to a target
// node. It exists so connection lifecycle (dial, reset, close, fd
// accounting) is observable; the one-sided data path still routes by
// (target, key).
type QP struct {
	nic    *NIC
	target int
	id     uint64
	valid  bool // false after a listener reset: the QP is in error state
	open   bool // still holds an initiator fd (until CloseQP)
}

// Target returns the node this QP connects to.
func (q *QP) Target() int { return q.target }

// Valid reports whether the QP is still usable. A QP invalidated by a
// listener reset keeps its fd until CloseQP — exactly the leak an
// unclosed real QP would be.
func (q *QP) Valid() bool { return q != nil && q.valid }

// SetFDLimit caps the number of fds (live QPs plus in-flight dials)
// this NIC's node may hold; 0 removes the cap. Lowering the limit
// below current usage does not kill existing QPs — it only makes new
// dials fail, like hitting RLIMIT_NOFILE.
func (n *NIC) SetFDLimit(limit int) { n.fdLimit = limit }

// FDLimit returns the current cap (0 = unlimited).
func (n *NIC) FDLimit() int { return n.fdLimit }

// FDsInUse returns fds currently held: live QPs plus in-flight dials.
func (n *NIC) FDsInUse() int { return n.fdsUsed }

// QPsOpen returns the number of established, unclosed QPs.
func (n *NIC) QPsOpen() int { return len(n.qps) }

// Dial establishes a QP to target from task t. The fd is consumed for
// the whole attempt; a failed dial returns it. then runs in t's
// context with the QP or an error (ErrFDLimit, ErrRefused, ErrNoRoute,
// ErrTimeout).
func (n *NIC) Dial(t *simos.Task, target int, then func(*QP, error)) {
	f := n.fab
	t.Compute(f.Cfg.DialCost, func() {
		t.Await(func(v any) {
			c := v.(dialCompletion)
			then(c.qp, c.err)
		})
		if n.fdLimit > 0 && n.fdsUsed >= n.fdLimit {
			n.DialErrors++
			// EMFILE is synchronous in real life; charge one engine
			// event so completion ordering stays causal.
			f.Eng.After(0, func() { t.Resume(dialCompletion{err: ErrFDLimit}) })
			return
		}
		n.fdsUsed++
		fail := func(after sim.Time, err error) {
			n.DialErrors++
			f.Eng.After(after, func() {
				n.fdsUsed--
				t.Resume(dialCompletion{err: err})
			})
		}
		extra := f.heteroLat(n.node.ID, target)
		if df, ok := f.Faults.(DialFaulter); ok && f.Faults != nil {
			v := df.Dial(n.node.ID, target)
			if v.Refuse {
				// Refused at the target: one round trip wasted.
				fail(2*f.xmit(64)+v.Delay, ErrRefused)
				return
			}
			extra += v.Delay
		}
		tn := f.NIC(target)
		if tn == nil {
			fail(f.xmit(64), ErrNoRoute)
			return
		}
		if tn.node.Down() {
			// Dead target: the CM request times out like any transport op.
			fail(f.Cfg.RDMATimeout, ErrTimeout)
			return
		}
		// Connection-manager exchange: request out, target NIC service,
		// reply back.
		f.Eng.After(2*f.xmit(64)+f.Cfg.NICService+extra, func() {
			if tn.node.Down() {
				n.DialErrors++
				n.fdsUsed--
				t.Resume(dialCompletion{err: ErrTimeout})
				return
			}
			n.qpSeq++
			qp := &QP{nic: n, target: target, id: n.qpSeq, valid: true, open: true}
			if n.qps == nil {
				n.qps = make(map[uint64]*QP)
			}
			n.qps[qp.id] = qp
			n.Dials++
			t.Resume(dialCompletion{qp: qp})
		})
	})
}

type dialCompletion struct {
	qp  *QP
	err error
}

// CloseQP tears down a QP and releases its fd. Idempotent.
func (n *NIC) CloseQP(q *QP) {
	if q == nil || !q.open {
		return
	}
	q.open = false
	q.valid = false
	delete(n.qps, q.id)
	n.fdsUsed--
}

// ResetListener models node's accept path restarting (process
// restart, listener socket bounce): every established QP targeting it
// — from any initiator — transitions to the error state. Initiator
// fds stay held until their owners CloseQP, which is how the real
// leak works too. No random draws, so installed fault plans replay
// bit-identically.
func (f *Fabric) ResetListener(node int) {
	for _, nic := range f.nics {
		for _, qp := range nic.qps {
			if qp.target == node && qp.valid {
				qp.valid = false
				nic.QPResets++
			}
		}
	}
}
