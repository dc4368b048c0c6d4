package core

import (
	"fmt"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// DefaultPort is the back-end port socket-based probes are served on.
const DefaultPort = "rmon"

// DefaultInterval is the paper's default polling/refresh period T.
const DefaultInterval = 50 * sim.Millisecond

// copyCost is the user-space cost to copy and encode a record.
const copyCost = 25 * sim.Microsecond

// Wire sizes of the socket probe exchange (header + payload).
const (
	ProbeReqSize   = 64
	ProbeReplySize = 32 + wire.RecordSize
)

// probeReq is the payload of a socket-based load request.
type probeReq struct {
	ReplyPort string
}

// RecordFromSnapshot converts a kernel snapshot to the wire record.
func RecordFromSnapshot(s simos.Snapshot, seq uint32) wire.LoadRecord {
	var r wire.LoadRecord
	recordFromSnapshotInto(&r, &s, seq)
	return r
}

// recordFromSnapshotInto is RecordFromSnapshot written into *r, every
// field assigned in place, so the DMA-instant encode fills its stack
// record instead of building and copying a fresh one per read.
func recordFromSnapshotInto(r *wire.LoadRecord, s *simos.Snapshot, seq uint32) {
	r.NumCPU = uint8(s.NumCPU)
	r.NodeID = uint16(s.NodeID)
	r.Seq = seq
	r.KTimeNS = int64(s.Time)
	r.NrRunning = clampU16(s.NrRunning)
	r.NrTasks = clampU16(s.NrTasks)
	r.MemUsedKB = uint32(s.MemUsedKB)
	r.MemTotalKB = uint32(s.MemTotalKB)
	r.NetRxBytes = s.NetRxBytes
	r.NetTxBytes = s.NetTxBytes
	r.CtxSwitch = s.CtxSwitch
	r.Conns = clampU16(s.Conns)
	r.CumIRQ = 0
	for i := 0; i < wire.MaxCPU; i++ {
		if i >= s.NumCPU {
			r.UtilPerMille[i], r.IrqPendingHard[i], r.IrqPendingSoft[i] = 0, 0, 0
			continue
		}
		r.UtilPerMille[i] = uint16(s.UtilPerMille[i])
		r.IrqPendingHard[i] = clampU16(s.IrqPendingHard[i])
		r.IrqPendingSoft[i] = clampU16(s.IrqPendingSoft[i])
		r.CumIRQ += s.CumIRQ[i]
	}
}

func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

// AgentConfig configures a back-end monitoring agent.
type AgentConfig struct {
	Scheme   Scheme
	Interval sim.Time // refresh period T of the asynchronous calc loop
	Port     string   // socket service port

	// StandbySocket additionally serves the socket probe port under the
	// RDMA schemes, giving the front-end a fallback channel when the
	// RDMA path breaks (see core.Failover). It costs the back-end one
	// report thread — knowingly re-accepting the Table 1 trade-off the
	// RDMA schemes exist to avoid, but only for as long as a breaker is
	// actually probing through it. Ignored by the socket schemes, which
	// serve that port anyway.
	StandbySocket bool

	// HistoryK, when > 0 on an RDMA-Sync-family scheme, registers a
	// K-slot history ring (wire.HistoryRing) instead of a single-record
	// region (no run gives RDMA-Async a ring, so it ignores K): a
	// kernel timer samples the load every Interval into the ring, so one
	// one-sided read fetches the K most recent timestamped samples —
	// e-RDMA-Sync++. The sampler is a timer hook, not a task
	// (BackendTasks stays 0 for the sync family), preserving the §4
	// no-extra-thread property. 0 keeps the single-record region
	// bit-for-bit. Clamped to wire.MaxRingSlots; ignored by socket
	// schemes.
	HistoryK int
}

func (c *AgentConfig) sanitize() {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Port == "" {
		c.Port = DefaultPort
	}
	if c.HistoryK > wire.MaxRingSlots {
		c.HistoryK = wire.MaxRingSlots
	}
	if c.HistoryK < 0 {
		c.HistoryK = 0
	}
}

// Agent is the back-end half of a monitoring scheme on one node. For
// the RDMA-Sync family it consists of nothing but a registered kernel
// memory region — Stop has nothing to kill, which is the paper's §4
// "no extra thread" property made literal.
type Agent struct {
	Scheme  Scheme
	Cfg     AgentConfig
	node    *simos.Node
	nic     *simnet.NIC
	mr      *simnet.MR
	mrSrc   func() []byte // registration source, kept for re-pinning
	mrLen   int           // registered region size (record or ring)
	shared  []byte        // "known memory location": encoded record
	ring    *wire.HistoryRing
	ringTk  *sim.Ticker // kernel timer filling the ring (not a task)
	seq     uint32
	stopped bool
	tasks   []*simos.Task
}

// StartAgent installs the back-end side of cfg.Scheme on node.
func StartAgent(node *simos.Node, nic *simnet.NIC, cfg AgentConfig) *Agent {
	cfg.sanitize()
	a := &Agent{Scheme: cfg.Scheme, Cfg: cfg, node: node, nic: nic}
	prime := func() {
		// Initialize the shared location before exposing it so the
		// very first probe never observes an unwritten region.
		a.shared = make([]byte, wire.RecordSize)
		rec := RecordFromSnapshot(node.K.Snapshot(), 0)
		rec.AppendTo(a.shared)
	}
	switch cfg.Scheme {
	case SocketAsync:
		prime()
		a.startCalcLoop()
		a.startReportThread(true)
	case SocketSync:
		a.startReportThread(false)
	case RDMAAsync:
		prime()
		a.mrSrc = simnet.StaticSource(a.shared)
		a.mrLen = wire.RecordSize
		a.startCalcLoop()
		a.mr = nic.RegisterMR(a.mrSrc, a.mrLen)
		if cfg.StandbySocket {
			// Standby channel: answers from the same shared location the
			// calc loop refreshes, preserving the scheme's asynchronous
			// staleness semantics over either transport.
			a.startReportThread(true)
		}
	case RDMASync, ERDMASync:
		if cfg.HistoryK > 0 {
			// e-RDMA-Sync++: the region is a K-slot seqlock ring. A
			// kernel timer (not a task) samples every Interval, and the
			// DMA-instant source pushes one more live sample as the read
			// lands — the newest slot is always current, exactly the
			// RDMA-Sync freshness contract, while the remaining slots
			// carry the recent history one read now amortizes.
			// Primed with one sample so a reader never sees an empty
			// region.
			a.ring = wire.NewHistoryRing(cfg.HistoryK, uint16(node.ID))
			a.ringPush()
			a.startRingTimer()
			a.mrSrc = func() []byte {
				a.ringPush()
				return a.ring.Bytes()
			}
			a.mrLen = a.ring.Size()
		} else {
			// Register the kernel statistics directly: the source closure
			// runs at the remote NIC's DMA instant, with zero host-CPU
			// cost, and always sees the live values. The snapshot and the
			// record are built on the stack and encoded into the fabric's
			// staging buffer, which the NIC copies out in the same
			// instant: the agent keeps no per-read memory.
			a.mrSrc = func() []byte {
				var s simos.Snapshot
				var r wire.LoadRecord
				a.seq++
				node.K.SnapshotInto(&s)
				recordFromSnapshotInto(&r, &s, a.seq)
				return r.AppendTo(nic.Stage(wire.RecordSize))
			}
			a.mrLen = wire.RecordSize
		}
		a.mr = nic.RegisterMR(a.mrSrc, a.mrLen)
		if cfg.StandbySocket {
			// Standby channel: a synchronous report thread reading /proc
			// per request, like Socket-Sync. It shares the agent's
			// sequence counter with the DMA source, so sequence numbers
			// stay monotonic across transports.
			a.startReportThread(false)
		}
	default:
		panic(fmt.Sprintf("core: unknown scheme %v", cfg.Scheme))
	}
	return a
}

// ringPush samples the kernel and publishes into the ring. Allocation-
// free: the sample is staged on the stack and encoded in place.
func (a *Agent) ringPush() {
	var s simos.Snapshot
	var r wire.LoadRecord
	a.seq++
	a.node.K.SnapshotInto(&s)
	recordFromSnapshotInto(&r, &s, a.seq)
	a.ring.Push(&r)
}

// startRingTimer arms the kernel-timer sampler that fills the ring
// every Interval. It is an engine ticker, not a simos task — the
// monitoring agent still shows zero back-end threads, which is the
// paper's point.
func (a *Agent) startRingTimer() {
	a.ringTk = a.node.Eng.NewTicker(a.Cfg.Interval, func() {
		if a.stopped {
			return
		}
		a.ringPush()
	})
}

// RingK returns the history-ring slot count (0 when the agent exports
// a single-record region).
func (a *Agent) RingK() int {
	if a.ring == nil {
		return 0
	}
	return a.ring.K()
}

// RKey returns the remote key of the agent's registered region (RDMA
// schemes only; zero otherwise).
func (a *Agent) RKey() uint32 {
	if a.mr == nil {
		return 0
	}
	return a.mr.Key()
}

// Port returns the socket service port name.
func (a *Agent) Port() string { return a.Cfg.Port }

// BackendTasks returns the number of live monitoring tasks on the
// back-end (0 for the RDMA-Sync family).
func (a *Agent) BackendTasks() int {
	n := 0
	for _, t := range a.tasks {
		if t.Alive() {
			n++
		}
	}
	return n
}

// Stop terminates the agent's back-end tasks and deregisters its
// memory region.
func (a *Agent) Stop() {
	a.stopped = true
	for _, t := range a.tasks {
		t.Exit()
	}
	if a.ringTk != nil {
		a.ringTk.Stop()
		a.ringTk = nil
	}
	if a.mr != nil {
		a.nic.Deregister(a.mr)
		a.mr = nil
	}
}

// InvalidateMR models the remote key going stale: the region is
// deregistered immediately (in-flight and subsequent reads with the
// old key fail) and, if repin > 0, re-registered with a fresh key
// after repin of virtual time — the agent noticing and re-pinning the
// page. Probers pick the new key up automatically because they ask the
// agent for RKey() on every probe.
func (a *Agent) InvalidateMR(repin sim.Time) {
	if a.mr == nil {
		return
	}
	a.nic.Deregister(a.mr)
	a.mr = nil
	if repin <= 0 || a.stopped {
		return
	}
	src := a.mrSrc
	a.node.Eng.Post(repin, func() {
		if a.stopped || a.mr != nil {
			return
		}
		if a.ring != nil {
			// Readers must not compute slopes across the discontinuity:
			// advance the ring epoch so their trend state resets.
			a.ring.BumpEpoch()
		}
		a.mr = a.nic.RegisterMR(src, a.mrLen)
	})
}

// startCalcLoop runs the load-calculating thread: read /proc, copy the
// formatted record to the shared location, sleep T, repeat (paper
// Figure 1a steps 1-4).
func (a *Agent) startCalcLoop() {
	t := a.node.Spawn("rmon-calc", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			if a.stopped {
				tk.Exit()
				return
			}
			tk.ReadProc(func() {
				var s simos.Snapshot
				tk.ProcSnapshot(&s)
				tk.Compute(copyCost, func() {
					var r wire.LoadRecord
					a.seq++
					recordFromSnapshotInto(&r, &s, a.seq)
					r.AppendTo(a.shared)
					tk.Sleep(a.Cfg.Interval, loop)
				})
			})
		}
		loop()
	})
	a.tasks = append(a.tasks, t)
}

// startReportThread runs the load-reporting thread. In the async
// variant it answers from the shared location; in the sync variant it
// reads /proc per request (paper Figure 1b steps 2-4).
func (a *Agent) startReportThread(async bool) {
	port := a.node.Port(a.Cfg.Port)
	t := a.node.Spawn("rmon-report", func(tk *simos.Task) {
		var serve func(m simos.Message)
		reply := func(m simos.Message, payload []byte) {
			req, ok := m.Payload.(probeReq)
			if !ok {
				tk.Recv(port, serve)
				return
			}
			a.nic.Send(tk, m.From, req.ReplyPort, ProbeReplySize, payload, func() {
				if a.stopped {
					tk.Exit()
					return
				}
				tk.Recv(port, serve)
			})
		}
		serve = func(m simos.Message) {
			if a.stopped {
				tk.Exit()
				return
			}
			if async {
				tk.Compute(copyCost, func() {
					reply(m, append([]byte(nil), a.shared...))
				})
				return
			}
			tk.ReadProc(func() {
				var s simos.Snapshot
				tk.ProcSnapshot(&s)
				tk.Compute(copyCost, func() {
					a.seq++
					reply(m, RecordFromSnapshot(s, a.seq).Encode())
				})
			})
		}
		tk.Recv(port, serve)
	})
	a.tasks = append(a.tasks, t)
}
