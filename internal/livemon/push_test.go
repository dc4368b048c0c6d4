package livemon

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/procfs"
	"rdmamon/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPushHostReceivesDeltas: a pusher whose load jumps past the
// threshold lands delta records in the host's aggregation slot via the
// one-sided write verb; the host application serves nothing per push.
func TestPushHostReceivesDeltas(t *testing.T) {
	leakCheck(t)
	h, err := StartPushHost("127.0.0.1:0", []uint16{7})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	prov := synthetic(1)
	p, err := startPusher(PusherConfig{
		Target: h.Addr(), Check: 5 * time.Millisecond, Heartbeat: time.Hour,
	}, 7, prov)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The first sample always pushes (nothing is primed yet).
	waitFor(t, 2*time.Second, func() bool {
		_, _, ok := h.Latest(7)
		return ok
	}, "first push")
	first, _, _ := h.Latest(7)
	if first.Load.NodeID != 7 {
		t.Fatalf("pushed record = %+v", first.Load)
	}

	// Quiet load: no further pushes, only skips.
	time.Sleep(50 * time.Millisecond)
	pushes0, skips0, _ := pusherStats(p)
	if skips0 == 0 {
		t.Fatalf("quiet pusher never skipped (pushes=%d)", pushes0)
	}

	// A load jump past the threshold must push within a few checks.
	prov.Set(procfs.Snapshot{
		NumCPU: 2, NrRunning: 9, NrTasks: 40,
		UtilPerMille: []int{1000, 1000},
		MemUsedKB:    1 << 18, MemTotalKB: 1 << 20,
	})
	waitFor(t, 2*time.Second, func() bool {
		rec, _, _ := h.Latest(7)
		return rec.PushSeq > first.PushSeq
	}, "delta push after load jump")
	rec, _, _ := h.Latest(7)
	if rec.Load.UtilMean() != 1000 {
		t.Fatalf("delta record util = %d, want 1000", rec.Load.UtilMean())
	}
	if _, torn := h.Stats(); torn != 0 {
		t.Fatalf("torn = %d", torn)
	}
}

// pusherStats reads a pusher's push, skip and re-key counts.
func pusherStats(p *Pusher) (pushes, skips, rekeys uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gate.Pushes, p.gate.Skips, p.rekeys
}

// slotKey is a node's current slot key on the push host.
func slotKey(h *PushHost, node uint16) uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.slots[node].Key()
}

// probePeriod is the adaptive controller's current period for a
// target.
func probePeriod(m *Monitor, addr string) time.Duration {
	t := m.locked(addr)
	defer t.probe.mu.Unlock()
	return time.Duration(t.poll.Ctrl.Period())
}

// TestPushHostInvalidationRekeys: tearing down the aggregation slot
// fails in-flight pushes; the pusher re-handshakes the fresh key after
// the re-pin and pushes resume.
func TestPushHostInvalidationRekeys(t *testing.T) {
	h, err := StartPushHost("127.0.0.1:0", []uint16{3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	prov := synthetic(1)
	p, err := startPusher(PusherConfig{
		Target: h.Addr(),
		// Tight heartbeat so every check pushes: key failures surface fast.
		Check: 5 * time.Millisecond, Heartbeat: time.Millisecond,
	}, 3, prov)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	waitFor(t, 2*time.Second, func() bool {
		rx, _ := h.Stats()
		return rx > 0
	}, "pushes before invalidation")

	h.invalidateSlot(3, 30*time.Millisecond)
	waitFor(t, 2*time.Second, func() bool {
		_, _, rekeys := pusherStats(p)
		rx, _ := h.Stats()
		_, _, ok := h.Latest(3)
		return rekeys > 0 && rx > 0 && ok
	}, "re-key and resumed pushes after re-pin")
}

// TestPushHostRejectsWrongNode: a record carrying a different node id
// than the slot's owner is counted torn, never cached.
func TestPushHostRejectsWrongNode(t *testing.T) {
	h, err := StartPushHost("127.0.0.1:0", []uint16{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Push node 2's record into node 1's slot by hand.
	prov := synthetic(1)
	s, _ := prov.Snapshot()
	pr := wire.PushRecord{PushSeq: 1, PushedNS: time.Now().UnixNano(), Load: s.Record(2, 1)}
	p, err := startPusher(PusherConfig{
		Target: h.Addr(),
		Check:  time.Hour, // loop stays idle; we drive the write below
	}, 1, prov)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.conn.RDMAWrite(slotKey(h, 1), pr.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := p.conn.Sync(); err != nil { // rings the posted write
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		_, torn := h.Stats()
		return torn == 1
	}, "cross-slot record counted torn")
	if _, _, ok := h.Latest(1); ok {
		t.Fatal("cross-slot record was cached")
	}
}

// TestPushHostAcceptsRestartedPusher: a pusher that dies and comes back
// restarts its sequence at 1; the host must adopt the fresh stream
// immediately (new timestamps) instead of waiting for the sequence to
// pass the dead process's watermark.
func TestPushHostAcceptsRestartedPusher(t *testing.T) {
	h, err := StartPushHost("127.0.0.1:0", []uint16{6})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	cfg := PusherConfig{
		Target: h.Addr(), Check: 5 * time.Millisecond, Heartbeat: time.Millisecond,
	}
	prov := synthetic(1)
	p1, err := startPusher(cfg, 6, prov)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		rec, _, ok := h.Latest(6)
		return ok && rec.PushSeq >= 4
	}, "a few pushes from the first incarnation")
	p1.Close()
	old, _, _ := h.Latest(6)

	p2, err := startPusher(cfg, 6, prov)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	waitFor(t, 2*time.Second, func() bool {
		rec, _, _ := h.Latest(6)
		return rec.PushSeq < old.PushSeq && rec.PushedNS > old.PushedNS
	}, "restarted pusher (seq reset to 1) taking over the slot")
}

// TestAgentStartsPusher: Config.Push wires the delta pusher into the
// live agent, inheriting its node id and provider.
func TestAgentStartsPusher(t *testing.T) {
	leakCheck(t)
	h, err := StartPushHost("127.0.0.1:0", []uint16{9})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	a, err := StartAgent(Config{
		Scheme: core.RDMASync, NodeID: 9, Provider: synthetic(2),
		Push: &PusherConfig{Target: h.Addr(), Check: 5 * time.Millisecond, Heartbeat: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.pusher == nil {
		t.Fatal("agent did not start a pusher")
	}
	waitFor(t, 2*time.Second, func() bool {
		rec, _, ok := h.Latest(9)
		return ok && rec.Load.NodeID == 9
	}, "agent-integrated push")
}

// swingingLoad reads as the quiet synthetic(1) load until jumped is
// set, then moves its CPU load by half the range on every sample (500,
// 1000, 0, 500‰, …). An RDMA-Sync agent without a history ring samples
// once per read, so every probe after the jump sees a change, even one
// that follows a second sample, and the adaptive period stays at its
// floor for as long as anyone looks rather than for one interval.
type swingingLoad struct {
	quiet   *procfs.Synthetic
	jumped  atomic.Bool
	samples atomic.Int64
}

func (p *swingingLoad) Snapshot() (procfs.Snapshot, error) {
	if !p.jumped.Load() {
		return p.quiet.Snapshot()
	}
	util := int(p.samples.Add(1)%3) * 500
	return procfs.Snapshot{
		NumCPU: 2, NrRunning: 9, NrTasks: 40,
		UtilPerMille: []int{util, util},
		MemUsedKB:    1 << 18, MemTotalKB: 1 << 20,
	}, nil
}

// TestMonitorAdaptivePeriod: a quiet target's poll period decays toward
// the ceiling; a load jump snaps it back to the base interval within a
// cycle or two, and a load that keeps changing holds it there.
func TestMonitorAdaptivePeriod(t *testing.T) {
	leakCheck(t)
	prov := &swingingLoad{quiet: synthetic(1)}
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 4, Provider: prov})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	interval := 5 * time.Millisecond
	maxP := 40 * time.Millisecond
	m, dialErrs := NewMonitor([]string{a.Addr()}, MonitorConfig{
		Interval: interval,
		Adaptive: &AdaptiveConfig{Max: maxP},
	})
	for tgt, derr := range dialErrs {
		t.Fatalf("dial %s: %v", tgt, derr)
	}
	defer m.Close()
	target := a.Addr()

	waitFor(t, 5*time.Second, func() bool {
		return probePeriod(m, target) == maxP
	}, "quiet target decaying to the ceiling")

	prov.jumped.Store(true)
	waitFor(t, 5*time.Second, func() bool {
		return probePeriod(m, target) == interval
	}, "load jump snapping the period back")
	if _, _, ok := m.Latest(target); !ok {
		t.Fatal("no record cached")
	}
}

// TestMonitorCloseMidRedial: a monitor closed while its probe retries a
// closed agent — backing off, redialing a refused port — leaves no
// connection and no goroutine behind.
func TestMonitorCloseMidRedial(t *testing.T) {
	leakCheck(t)
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 6, Provider: synthetic(1)})
	if err != nil {
		t.Fatal(err)
	}
	target := a.Addr()
	m, dialErrs := NewMonitor([]string{target}, MonitorConfig{Interval: 5 * time.Millisecond})
	for tgt, derr := range dialErrs {
		t.Fatalf("dial %s: %v", tgt, derr)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, _, ok := m.Latest(target)
		return ok
	}, "a first record")
	a.Close()
	waitFor(t, 5*time.Second, func() bool { return m.Err(target) != nil }, "a fetch failing against the closed agent")
	// The next tick's fetch is under way: a retry spends ~75 ms in
	// backoff and redials, so Close lands in the middle of one.
	time.Sleep(10 * time.Millisecond)
	m.Close()
}

// TestMonitorCloseCutsStalledFetch: Close on a monitor whose target
// accepts and never replies returns at once. It closes the probe's
// connection, which fails the fetch in flight, instead of waiting out
// that fetch's attempts × operation deadline (3 × 10 s at defaults).
func TestMonitorCloseCutsStalledFetch(t *testing.T) {
	leakCheck(t)
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 6, Provider: synthetic(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	proxy := newReplyDropProxy(t, a.Addr())
	m, dialErrs := NewMonitor([]string{proxy.Addr()}, MonitorConfig{Interval: 5 * time.Millisecond})
	for tgt, derr := range dialErrs {
		t.Fatalf("dial %s: %v", tgt, derr)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, _, ok := m.Latest(proxy.Addr())
		return ok
	}, "a first record")
	proxy.stalled.Store(true)
	time.Sleep(50 * time.Millisecond) // a fetch now waits on a reply that never comes
	start := time.Now()
	m.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v against a stalled target, want < 1s", d)
	}
}

// TestMonitorAdaptiveLeaseLoss: losing primaryship forces the fast
// period even on a quiet fleet.
func TestMonitorAdaptiveLeaseLoss(t *testing.T) {
	a, err := StartAgent(Config{Scheme: core.RDMASync, NodeID: 5, Provider: synthetic(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var held atomicBool
	held.Store(true)
	interval := 5 * time.Millisecond
	maxP := 40 * time.Millisecond
	m, _ := NewMonitor([]string{a.Addr()}, MonitorConfig{
		Interval: interval,
		Adaptive: &AdaptiveConfig{Max: maxP, LeaseValid: held.Load},
	})
	defer m.Close()
	target := a.Addr()

	waitFor(t, 5*time.Second, func() bool {
		return probePeriod(m, target) == maxP
	}, "decay while the lease is held")

	held.Store(false)
	waitFor(t, 5*time.Second, func() bool {
		return probePeriod(m, target) == interval
	}, "lease loss snapping the period back")
}

// atomicBool is a tiny mutex-backed bool usable from the monitor's
// poll goroutine and the test.
type atomicBool struct {
	mu sync.Mutex
	v  bool
}

func (b *atomicBool) Store(v bool) { b.mu.Lock(); b.v = v; b.mu.Unlock() }
func (b *atomicBool) Load() bool   { b.mu.Lock(); defer b.mu.Unlock(); return b.v }
