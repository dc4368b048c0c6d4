package core

import (
	"sync"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// PushPort is the front-end port multicast load reports arrive on.
const PushPort = "rmon-push"

// PushGroup is the default multicast group name.
const PushGroup = "rmon-push-group"

// The paper's §6 discusses the hardware-multicast alternative: instead
// of the front-end pulling load records, each back-end multicasts its
// record to the group of front-ends every T. This scales to many
// front-ends in one send — but it uses channel semantics, so it keeps
// a monitoring process on the back-end (with its /proc and TX costs and
// its scheduling delays) and gives up the one-sided benefits. PushAgent
// and PushMonitor implement it for comparison.

// PushAgent is the back-end multicast publisher.
type PushAgent struct {
	Interval sim.Time
	seq      uint32

	// Published counts multicast reports sent.
	Published uint64
}

// StartPushAgent launches the publisher on node, multicasting to
// group every interval.
func StartPushAgent(node *simos.Node, nic *simnet.NIC, group string, interval sim.Time) *PushAgent {
	if interval <= 0 {
		interval = DefaultInterval
	}
	a := &PushAgent{Interval: interval}
	node.Spawn("rmon-push", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			tk.ReadProc(func() {
				var s simos.Snapshot
				tk.ProcSnapshot(&s)
				tk.Compute(25*sim.Microsecond, func() {
					a.seq++
					payload := RecordFromSnapshot(s, a.seq).Encode()
					nic.Multicast(tk, group, ProbeReplySize, payload, func() {
						a.Published++
						tk.Sleep(a.Interval, loop)
					})
				})
			})
		}
		loop()
	})
	return a
}

// PushMonitor is the front-end receiver: it joins the multicast group
// and caches the latest record per back-end. It satisfies the same
// Latest contract as Monitor.
//
// Latest is safe to call from outside the engine goroutine (an
// exporter or dispatcher thread polling the cache while the rx task
// runs): mu guards the record maps and counters against the rx task's
// writes.
type PushMonitor struct {
	mu     sync.Mutex
	last   map[int]wire.LoadRecord
	lastAt map[int]sim.Time

	// received counts reports processed; torn counts records that
	// failed validation. Read them via Stats.
	received uint64
	torn     uint64
}

// StartPushMonitor joins front to the group and starts the receiver.
func StartPushMonitor(fab *simnet.Fabric, front *simos.Node, group string) *PushMonitor {
	m := &PushMonitor{
		last:   make(map[int]wire.LoadRecord),
		lastAt: make(map[int]sim.Time),
	}
	fab.JoinGroup(group, front.ID, PushPort)
	port := front.Port(PushPort)
	front.Spawn("rmon-push-rx", func(tk *simos.Task) {
		var serve func(msg simos.Message)
		serve = func(msg simos.Message) {
			tk.Compute(2*sim.Microsecond, func() {
				if raw, ok := msg.Payload.([]byte); ok {
					m.mu.Lock()
					if rec, err := wire.Decode(raw); err == nil {
						m.last[int(rec.NodeID)] = rec
						m.lastAt[int(rec.NodeID)] = front.Eng.Now()
						m.received++
					} else {
						m.torn++
					}
					m.mu.Unlock()
				}
				tk.Recv(port, serve)
			})
		}
		tk.Recv(port, serve)
	})
	return m
}

// Latest returns the newest record pushed by a back-end. Safe for
// concurrent use with the rx task.
func (m *PushMonitor) Latest(backend int) (wire.LoadRecord, sim.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.last[backend]
	return rec, m.lastAt[backend], ok
}

// Stats returns the processed / torn record counts. Safe for
// concurrent use with the rx task.
func (m *PushMonitor) Stats() (received, torn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.received, m.torn
}
