package livemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/procfs"
	"rdmamon/internal/sim"
	"rdmamon/internal/tcpverbs"
	"rdmamon/internal/wire"
)

// portPushInfo is the push-path control port: a 2-byte big-endian node
// id maps to that node's 4-byte aggregation-slot key (0 = no slot,
// e.g. after an invalidation and before the re-pin).
const portPushInfo = "rmon-push-info"

// PushHost is the live front-end half of the hybrid scheme: it hosts
// one writable aggregation slot per expected back-end, written remotely
// by Pushers via the one-sided write verb — the host application is
// never involved in a push, exactly like the agent application is never
// involved in a one-sided probe read. It is safe for concurrent use.
type PushHost struct {
	verbs *tcpverbs.Agent

	mu     sync.Mutex
	slots  map[uint16]*tcpverbs.MR
	last   map[uint16]wire.PushRecord
	lastAt map[uint16]time.Time

	received, torn uint64

	loops *loops // runs none; owns the host's one teardown
}

// StartPushHost listens on addr and registers a writable slot for each
// expected back-end node id.
func StartPushHost(addr string, nodes []uint16) (*PushHost, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	v, err := tcpverbs.Listen(addr)
	if err != nil {
		return nil, err
	}
	h := &PushHost{
		verbs:  v,
		slots:  make(map[uint16]*tcpverbs.MR),
		last:   make(map[uint16]wire.PushRecord),
		lastAt: make(map[uint16]time.Time),
		loops:  newLoops(),
	}
	for _, n := range nodes {
		h.registerSlot(n)
	}
	v.HandleCall(portPushInfo, func(payload []byte) []byte {
		reply := make([]byte, 4)
		if len(payload) < 2 {
			return reply
		}
		node := binary.BigEndian.Uint16(payload)
		h.mu.Lock()
		if mr := h.slots[node]; mr != nil {
			binary.BigEndian.PutUint32(reply, mr.Key())
		}
		h.mu.Unlock()
		return reply
	})
	return h, nil
}

// registerSlot pins node's slot. Caller must not hold h.mu.
func (h *PushHost) registerSlot(node uint16) {
	buf := make([]byte, wire.PushRecordSize)
	mr := h.verbs.RegisterWritableMR(
		func() []byte { return buf },
		wire.PushRecordSize,
		func(data []byte) { h.sink(node, data) })
	h.mu.Lock()
	h.slots[node] = mr
	h.mu.Unlock()
}

// sink validates one landed push. A record that fails the CRC (a torn
// or corrupt write) or carries the wrong node id is dropped. A stale
// PushSeq alone is not enough to drop: a restarted agent resets its
// sequence to 1, and waiting for it to pass the dead process's
// watermark could ignore a live pusher for hours. So a record is
// stale only when both its sequence AND its push timestamp regress —
// a delayed duplicate of an old write fails both, a restarted pusher
// carries a fresh timestamp and takes over the slot.
func (h *PushHost) sink(node uint16, data []byte) {
	rec, err := wire.DecodePush(data)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil || rec.Load.NodeID != node {
		h.torn++
		return
	}
	if prev, ok := h.last[node]; ok && rec.PushSeq <= prev.PushSeq && rec.PushedNS <= prev.PushedNS {
		h.torn++
		return
	}
	h.last[node] = rec
	h.lastAt[node] = time.Now()
	h.received++
}

// Addr returns the host's listen address.
func (h *PushHost) Addr() string { return h.verbs.Addr() }

// Latest returns the newest pushed record for a node.
func (h *PushHost) Latest(node uint16) (wire.PushRecord, time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec, ok := h.last[node]
	return rec, h.lastAt[node], ok
}

// Stats returns the processed / rejected push counts.
func (h *PushHost) Stats() (received, torn uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.received, h.torn
}

// invalidateSlot models the aggregation region going stale for one
// node, a fault hook for tests: the slot is deregistered immediately —
// in-flight and subsequent pushes with the old key fail — and, if
// repin > 0, re-registered with a fresh key after repin. Pushers
// recover the new key through their re-handshake path.
func (h *PushHost) invalidateSlot(node uint16, repin time.Duration) {
	h.mu.Lock()
	mr := h.slots[node]
	delete(h.slots, node)
	h.mu.Unlock()
	if mr == nil {
		return
	}
	h.verbs.Deregister(mr)
	if repin <= 0 {
		return
	}
	time.AfterFunc(repin, func() {
		h.mu.Lock()
		exists := h.slots[node] != nil
		h.mu.Unlock()
		if h.loops.stopped() || exists {
			return
		}
		h.registerSlot(node)
	})
}

// Close stops the host. Idempotent and safe for concurrent use; every
// caller observes the first teardown's error.
func (h *PushHost) Close() error {
	return h.loops.close(h.verbs.Close)
}

// PusherConfig configures a live delta pusher.
type PusherConfig struct {
	Target string // push host address

	// Threshold is the load-index delta that triggers a push
	// (default core.DefaultChangeThreshold, 0.05).
	Threshold float64
	// Check is the local sampling period (default 50ms). Sampling is
	// local and cheap; only crossings of Threshold cost a write.
	Check time.Duration
	// Heartbeat bounds the silence: a push is forced when the last one
	// is older than this, even if nothing changed (default 16x Check).
	Heartbeat time.Duration
}

func (c PusherConfig) withDefaults() PusherConfig {
	if c.Threshold <= 0 {
		c.Threshold = core.DefaultChangeThreshold
	}
	if c.Check <= 0 {
		c.Check = 50 * time.Millisecond
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 16 * c.Check
	}
	return c
}

// Pusher is the live back-end half of the hybrid scheme: it samples
// the local machine every Check and RDMA-Writes a timestamped delta
// record into its slot on the PushHost when its core.PushGate — the
// change test the simulated DeltaPusher runs — says the load index moved
// by Threshold (or Heartbeat expired). A failed write triggers one key
// re-handshake and retry — an invalidated-and-re-pinned slot hands out
// a fresh key.
type Pusher struct {
	node  uint16
	prov  procfs.Provider
	conn  *tcpverbs.Conn
	start time.Time

	mu     sync.Mutex
	key    uint32
	gate   core.PushGate
	rekeys uint64

	loops *loops // the sampling loop
}

// startPusher dials the push host, discovers node's slot key and
// starts the sampling loop over prov.
func startPusher(cfg PusherConfig, node uint16, prov procfs.Provider) (*Pusher, error) {
	cfg = cfg.withDefaults()
	conn, err := tcpverbs.Dial(cfg.Target)
	if err != nil {
		return nil, err
	}
	p := &Pusher{node: node, prov: prov, conn: conn, start: time.Now(), loops: newLoops(),
		gate: core.NewPushGate(cfg.Threshold, sim.Time(cfg.Heartbeat))}
	if err := p.rekey(); err != nil {
		conn.Close()
		return nil, err
	}
	p.loops.every(cfg.Check, false, p.check)
	return p, nil
}

// now is the gate's clock, which stamps PushedNS: Unix nanoseconds,
// advanced by the monotonic clock from start. A restarted pusher's
// pushes then carry later stamps than its predecessor's, which is how
// the host tells it from a replay (see PushHost.sink), and a wall-clock
// step cannot stall the heartbeat.
func (p *Pusher) now() sim.Time {
	return sim.Time(p.start.UnixNano()) + sim.Time(time.Since(p.start))
}

// rekey re-fetches this node's slot key from the control port.
func (p *Pusher) rekey() error {
	req := make([]byte, 2)
	binary.BigEndian.PutUint16(req, p.node)
	reply, err := p.conn.Call(portPushInfo, req)
	if err != nil {
		return fmt.Errorf("livemon: push key exchange: %w", err)
	}
	if len(reply) < 4 {
		return fmt.Errorf("livemon: short push key reply")
	}
	p.mu.Lock()
	p.key = binary.BigEndian.Uint32(reply)
	p.mu.Unlock()
	return nil
}

// check samples the machine and pushes if the gate says so.
func (p *Pusher) check() {
	s, err := p.prov.Snapshot()
	if err != nil {
		return // transient sampling errors keep the old state
	}
	pr := wire.PushRecord{Load: s.Record(p.node, 0)}
	p.mu.Lock()
	push := p.gate.Check(&pr, p.now())
	key := p.key
	p.mu.Unlock()
	if !push {
		return
	}

	// A push is a posted write and the Sync that lands it, so a refused
	// write surfaces here. The slot may have been invalidated and
	// re-pinned under a fresh key: re-handshake once and retry.
	enc := pr.Encode()
	werr := errors.Join(p.conn.RDMAWrite(key, enc), p.conn.Sync())
	if werr != nil && p.rekey() == nil {
		p.mu.Lock()
		key = p.key
		p.rekeys++
		p.mu.Unlock()
		werr = errors.Join(p.conn.RDMAWrite(key, enc), p.conn.Sync())
	}
	p.mu.Lock()
	p.gate.Pushed(werr)
	p.mu.Unlock()
}

// Close stops the pusher. Idempotent and safe for concurrent use; every
// caller observes the first teardown's error.
func (p *Pusher) Close() error {
	return p.loops.close(p.conn.Close)
}
