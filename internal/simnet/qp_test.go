package simnet

import (
	"errors"
	"fmt"
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

// dialOnce drives one Dial from node 0 to target and returns its
// outcome after the engine settles.
func dialOnce(r *rig, target int) (qp *QP, err error, done bool) {
	r.nodes[0].Spawn("dial", func(tk *simos.Task) {
		r.nics[0].Dial(tk, target, func(q *QP, e error) {
			qp, err, done = q, e, true
		})
	})
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	return
}

// TestDialEstablishesQPAndFD: a successful dial opens exactly one QP,
// holds one initiator fd, and costs at least the connection-manager
// round trip.
func TestDialEstablishesQPAndFD(t *testing.T) {
	r := newRig(t, 2, Defaults())
	start := r.eng.Now()
	qp, err, done := dialOnce(r, 1)
	if !done || err != nil {
		t.Fatalf("dial: done=%v err=%v", done, err)
	}
	if !qp.Valid() || qp.target != 1 {
		t.Fatalf("qp invalid or mistargeted: %+v", qp)
	}
	if r.nics[0].QPsOpen() != 1 || r.nics[0].FDsInUse() != 1 {
		t.Fatalf("qps=%d fds=%d, want 1/1", r.nics[0].QPsOpen(), r.nics[0].FDsInUse())
	}
	if r.nics[0].Dials != 1 || r.nics[0].DialErrors != 0 {
		t.Fatalf("counters dials=%d errs=%d, want 1/0", r.nics[0].Dials, r.nics[0].DialErrors)
	}
	if took := r.eng.Now() - start; took == 0 {
		t.Fatal("dial completed in zero time; CM exchange not modeled")
	}

	// CloseQP releases both, and is idempotent.
	r.nics[0].CloseQP(qp)
	r.nics[0].CloseQP(qp)
	if r.nics[0].QPsOpen() != 0 || r.nics[0].FDsInUse() != 0 {
		t.Fatalf("after close: qps=%d fds=%d, want 0/0", r.nics[0].QPsOpen(), r.nics[0].FDsInUse())
	}
	if qp.Valid() {
		t.Fatal("closed QP still valid")
	}
}

// TestDialFDLimit: with the fd budget exhausted, a dial fails locally
// with ErrFDLimit without consuming a descriptor or touching the wire.
func TestDialFDLimit(t *testing.T) {
	r := newRig(t, 2, Defaults())
	r.nics[0].SetFDLimit(1)
	qp, err, _ := dialOnce(r, 1)
	if err != nil {
		t.Fatalf("first dial under limit 1: %v", err)
	}
	if _, err2, done := dialOnce(r, 1); !done || !errors.Is(err2, ErrFDLimit) {
		t.Fatalf("second dial: done=%v err=%v, want ErrFDLimit", done, err2)
	}
	if r.nics[0].FDsInUse() != 1 {
		t.Fatalf("failed dial leaked an fd: %d in use", r.nics[0].FDsInUse())
	}
	// Releasing the fd makes the next dial succeed again.
	r.nics[0].CloseQP(qp)
	if _, err3, _ := dialOnce(r, 1); err3 != nil {
		t.Fatalf("dial after release: %v", err3)
	}
}

// TestDialDownTargetTimesOut: dialing a down node costs the RDMA
// timeout, returns ErrTimeout, and returns the fd.
func TestDialDownTargetTimesOut(t *testing.T) {
	r := newRig(t, 2, Defaults())
	r.nodes[1].Crash()
	start := r.eng.Now()
	_, err, done := dialOnce(r, 1)
	if !done || !errors.Is(err, ErrTimeout) {
		t.Fatalf("dial to down node: done=%v err=%v, want ErrTimeout", done, err)
	}
	if took := r.eng.Now() - start; took < r.fab.Cfg.RDMATimeout {
		t.Fatalf("failed after %v, before the %v CM timeout", took, r.fab.Cfg.RDMATimeout)
	}
	if r.nics[0].FDsInUse() != 0 {
		t.Fatalf("timed-out dial leaked an fd")
	}
	if r.nics[0].DialErrors != 1 {
		t.Fatalf("DialErrors = %d, want 1", r.nics[0].DialErrors)
	}
}

// TestResetListenerInvalidatesQPs: a listener reset flips every
// established QP targeting the node to the error state — from any
// initiator — while their fds stay held until CloseQP (that is the
// leak the pool's fence-and-recycle path exists to stop).
func TestResetListenerInvalidatesQPs(t *testing.T) {
	r := newRig(t, 3, Defaults())
	qp01, err, _ := dialOnce(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	qp02, err, _ := dialOnce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	var qp21 *QP
	r.nodes[2].Spawn("dial", func(tk *simos.Task) {
		r.nics[2].Dial(tk, 1, func(q *QP, e error) { qp21 = q })
	})
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if qp21 == nil {
		t.Fatal("third dial never completed")
	}

	r.fab.ResetListener(1)
	if qp01.Valid() || qp21.Valid() {
		t.Fatal("QPs to the reset node stayed valid")
	}
	if !qp02.Valid() {
		t.Fatal("reset of node 1 invalidated a QP to node 2")
	}
	if r.nics[0].QPResets != 1 || r.nics[2].QPResets != 1 {
		t.Fatalf("QPResets = %d/%d, want 1/1", r.nics[0].QPResets, r.nics[2].QPResets)
	}
	// fds held until the owners notice and close.
	if r.nics[0].FDsInUse() != 2 {
		t.Fatalf("initiator fds = %d, want 2 (held through the reset)", r.nics[0].FDsInUse())
	}
	r.nics[0].CloseQP(qp01)
	if r.nics[0].FDsInUse() != 1 {
		t.Fatalf("CloseQP after reset did not release the fd")
	}
}

// TestResetListenerTouchesOnlyItsTarget: two initiators (active-active
// front-ends) both dial into a fabric of mostly idle NICs. A reset
// counts one QPReset per valid QP on the initiator that holds it,
// leaves a QP its owner already closed alone, does not reach a QP
// dialed after it, and is a no-op on a node nobody dialed.
func TestResetListenerTouchesOnlyItsTarget(t *testing.T) {
	const nodes = 40
	r := newRig(t, nodes, Defaults())
	dial := func(from, target int) *QP {
		var qp *QP
		r.nodes[from].Spawn("dial", func(tk *simos.Task) {
			r.nics[from].Dial(tk, target, func(q *QP, err error) {
				if err != nil {
					t.Errorf("dial %d->%d: %v", from, target, err)
				}
				qp = q
			})
		})
		r.eng.RunUntil(r.eng.Now() + sim.Second)
		if qp == nil {
			t.Fatalf("dial %d->%d never completed", from, target)
		}
		return qp
	}
	// Front-ends 0 and 1: two QPs each to back-end 5, one each to 6.
	a5, a5b, a6 := dial(0, 5), dial(0, 5), dial(0, 6)
	b5, b5b, b6 := dial(1, 5), dial(1, 5), dial(1, 6)
	r.nics[1].CloseQP(b5b) // closed before the reset: not the reset's to count

	r.fab.ResetListener(5)
	for _, q := range []*QP{a5, a5b, b5} {
		if q.Valid() {
			t.Fatal("a QP to the reset node stayed valid")
		}
	}
	if !a6.Valid() || !b6.Valid() {
		t.Fatal("resetting node 5 invalidated a QP to node 6")
	}
	if b5b.Valid() || r.nics[1].FDsInUse() != 2 {
		t.Fatalf("the closed QP moved: valid=%v, initiator fds=%d (want false, 2)", b5b.Valid(), r.nics[1].FDsInUse())
	}
	if r.nics[0].QPResets != 2 || r.nics[1].QPResets != 1 {
		t.Fatalf("QPResets = %d/%d, want 2/1", r.nics[0].QPResets, r.nics[1].QPResets)
	}

	// A QP dialed after the reset is a fresh connection.
	fresh := dial(1, 5)
	if !fresh.Valid() {
		t.Fatal("a QP dialed after the reset is invalid")
	}
	// A second reset only finds the fresh QP valid.
	r.fab.ResetListener(5)
	if fresh.Valid() || r.nics[0].QPResets != 2 || r.nics[1].QPResets != 2 {
		t.Fatalf("second reset: fresh valid=%v, QPResets = %d/%d, want false, 2/2",
			fresh.Valid(), r.nics[0].QPResets, r.nics[1].QPResets)
	}

	// Resetting a node nobody dialed changes nothing.
	r.fab.ResetListener(nodes - 1)
	r.fab.ResetListener(nodes + 7) // not attached at all
	if !a6.Valid() || !b6.Valid() || r.nics[0].QPResets != 2 || r.nics[1].QPResets != 2 {
		t.Fatal("resetting an undialed node moved a QP or a counter")
	}
	for i := 2; i < nodes; i++ {
		if r.nics[i].QPResets != 0 || r.nics[i].QPsOpen() != 0 {
			t.Fatalf("idle NIC %d: QPResets=%d QPsOpen=%d", i, r.nics[i].QPResets, r.nics[i].QPsOpen())
		}
	}
}

// BenchmarkResetListener times one listener reset of a node one
// front-end holds a QP to, against the fabric's size: the cost is the
// node's inbound QPs, so ns/op reads flat from 64 NICs to 8192.
func BenchmarkResetListener(b *testing.B) {
	for _, nics := range []int{64, 8192} {
		b.Run(fmt.Sprintf("nics=%d", nics), func(b *testing.B) {
			r := &rig{eng: sim.NewEngine(1)}
			r.fab = NewFabric(r.eng, Defaults())
			cfg := lightNodeCfg()
			for i := 0; i < nics; i++ {
				nd := simos.NewNode(r.eng, i, cfg)
				r.nodes = append(r.nodes, nd)
				r.nics = append(r.nics, r.fab.Attach(nd))
			}
			var qp *QP
			r.nodes[0].Spawn("dial", func(tk *simos.Task) {
				r.nics[0].Dial(tk, 1, func(q *QP, err error) { qp = q })
			})
			r.eng.RunUntil(sim.Second)
			if qp == nil {
				b.Fatal("dial never completed")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qp.valid = true
				r.fab.ResetListener(1)
			}
		})
	}
}
