// Package simnet models an RDMA-capable cluster interconnect (an
// InfiniBand-style fabric) connecting simos nodes.
//
// Two communication semantics are provided, mirroring §2 of the paper:
//
//   - Channel semantics (Send / ports): every message costs kernel CPU
//     on the sender, crosses the wire, raises an interrupt on the
//     receiver and requires the receiving process to be scheduled
//     before it is consumed. This is the sockets (IPoIB) path.
//
//   - Memory semantics (RDMARead / RDMAWrite against registered memory
//     regions): the initiating NIC talks directly to the target NIC,
//     which DMAs the registered region *without any target-CPU
//     involvement* — no interrupt, no process wakeup, no scheduling.
//     This is the property the paper's monitoring schemes exploit.
//
// Memory regions carry protection keys and a read-only flag; a remote
// write to a read-only region fails with ErrPermission, implementing
// the paper's §6 answer to the security concern of exposing kernel
// memory.
package simnet

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

// Errors surfaced as RDMA completion statuses.
var (
	ErrNoRoute    = errors.New("simnet: no such node")
	ErrBadKey     = errors.New("simnet: invalid remote key")
	ErrPermission = errors.New("simnet: remote access permission denied")
	ErrLength     = errors.New("simnet: access beyond region bounds")
	// ErrTimeout is the initiator-side completion when the target is
	// dead, partitioned away, or the fabric dropped the operation: the
	// HCA exhausts its transport retries and fails the work request.
	ErrTimeout = errors.New("simnet: transport retry limit exceeded")
)

// ChannelVerdict is a fault model's decision about one channel-
// semantics delivery attempt.
type ChannelVerdict struct {
	Drop  bool     // lose the packet (sender's TCP retransmits after RTO)
	Delay sim.Time // extra one-way latency
}

// RDMAVerdict is a fault model's decision about one one-sided
// operation.
type RDMAVerdict struct {
	Fail  bool     // complete with ErrTimeout after the transport timeout
	Delay sim.Time // extra fabric latency
}

// FaultModel lets a fault-injection layer (internal/faults) perturb the
// fabric. Both hooks are consulted once per attempt, on the engine
// goroutine, so a deterministic model yields a deterministic run.
type FaultModel interface {
	Channel(from, dst, size int) ChannelVerdict
	RDMA(from, target int) RDMAVerdict
}

// ExternalID is the node-ID space used for endpoints outside the
// simulated cluster (e.g. client machines driving the workload). IDs
// at or below ExternalBase are external.
const ExternalBase = -1

// Config holds the fabric timing constants, calibrated to a 4x
// InfiniBand network with an IPoIB sockets stack (paper testbed).
type Config struct {
	WireLatency  sim.Time // one-way propagation + switch
	BandwidthBps int64    // payload serialization rate

	SockTxCost sim.Time // sender kernel CPU per sockets message
	TxCPUBps   int64    // additional sender kernel CPU: bytes/sec of copy+checksum work
	AckEvery   int      // one ACK interrupt returns to the sender per this many bytes

	NICService   sim.Time // target NIC processing per RDMA op
	RDMAPostCost sim.Time // initiator CPU to post a work request
	// RDMAPostWRCost is the marginal initiator CPU for each work
	// request after the first in a doorbell-batched post: building
	// another WQE on an already-mapped queue costs far less than the
	// doorbell ring itself, which is what makes multi-WR posting pay
	// (the Storm/RDMAvisor observation).
	RDMAPostWRCost sim.Time

	// TCP-over-IPoIB loss behaviour: a message arriving at a
	// CPU-distressed node may be dropped at the socket layer (buffers
	// overrun because the consumer is starved) and is retransmitted
	// after RTO, Linux's 200 ms minimum. One-sided RDMA traffic never
	// takes this path — the HCA completes it reliably in hardware —
	// which is a large part of why socket-based monitoring of a hot
	// server observes multi-hundred-ms stalls (paper Table 1 maxima).
	SockDropMax    float64  // cap on per-message drop probability (0 disables)
	SockDropPer    float64  // drop probability added per backlogged connection over the threshold
	SockDropThresh int      // connection backlog where dropping begins
	RTO            sim.Time // retransmission timeout
	MaxRetries     int

	// RDMATimeout is how long the initiating NIC takes to complete a
	// work request with ErrTimeout when the target is unreachable
	// (transport retry counter exhausted in firmware).
	RDMATimeout sim.Time

	// DialCost is the initiator CPU charged to set up one connection
	// (allocate the QP, drive the CM exchange).
	DialCost sim.Time
}

// Defaults returns fabric constants calibrated to the paper's testbed.
func Defaults() Config {
	return Config{
		WireLatency:    5 * sim.Microsecond,
		BandwidthBps:   8e9,
		SockTxCost:     15 * sim.Microsecond,
		TxCPUBps:       500 << 20,
		AckEvery:       4 << 10,
		NICService:     2 * sim.Microsecond,
		RDMAPostCost:   1 * sim.Microsecond,
		RDMAPostWRCost: 250 * sim.Nanosecond,
		SockDropMax:    0.35,
		SockDropPer:    0.04,
		SockDropThresh: 12,
		RTO:            200 * sim.Millisecond,
		MaxRetries:     8,
		RDMATimeout:    20 * sim.Millisecond,
		DialCost:       3 * sim.Microsecond,
	}
}

func (c *Config) sanitize() {
	d := Defaults()
	if c.WireLatency <= 0 {
		c.WireLatency = d.WireLatency
	}
	if c.BandwidthBps <= 0 {
		c.BandwidthBps = d.BandwidthBps
	}
	if c.NICService <= 0 {
		c.NICService = d.NICService
	}
	if c.TxCPUBps <= 0 {
		c.TxCPUBps = d.TxCPUBps
	}
	if c.AckEvery <= 0 {
		c.AckEvery = d.AckEvery
	}
	// Zero means default for the loss model; explicitly negative
	// SockDropMax disables it.
	if c.SockDropMax == 0 {
		c.SockDropMax = d.SockDropMax
		if c.SockDropPer == 0 {
			c.SockDropPer = d.SockDropPer
		}
		if c.SockDropThresh == 0 {
			c.SockDropThresh = d.SockDropThresh
		}
	}
	if c.RTO <= 0 {
		c.RTO = d.RTO
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.RDMATimeout <= 0 {
		c.RDMATimeout = d.RDMATimeout
	}
	if c.RDMAPostWRCost <= 0 {
		c.RDMAPostWRCost = d.RDMAPostWRCost
	}
	if c.DialCost <= 0 {
		c.DialCost = d.DialCost
	}
}

// Fabric is the cluster interconnect.
type Fabric struct {
	Eng *sim.Engine
	Cfg Config

	nics        map[int]*NIC
	byID        []*NIC // nics with id >= 0, by id: the per-op lookup
	externals   map[int]func(simos.Message)
	groups      map[string][]groupMember
	established map[string]bool

	// nodeLat is per-node extra one-way fabric latency (fleet
	// heterogeneity: a node behind a slower NIC or an extra switch
	// hop). Empty — the default — costs nothing on any path, so
	// homogeneous fabrics stay bit-identical to the seed model.
	nodeLat map[int]sim.Time

	// Faults, when non-nil, perturbs deliveries and RDMA operations
	// (see internal/faults). Install via SetFaults before traffic runs.
	Faults FaultModel

	// stage is the fabric's one staging buffer (see NIC.Stage): the
	// responder's image of a region under an atomic (postCompSwap), or
	// the bytes a staging source encodes at a read's DMA instant. It
	// lives only within that instant. Safe without locking because every
	// engine callback runs on the single engine goroutine.
	stage []byte

	// readOps and readBatches are the free lists of one-sided read state
	// (see readOp, readBatch), writeOps of writes (writeOp), msgOps of
	// messages in flight (msgOp).
	readOps     []*readOp
	readBatches []*readBatch
	writeOps    []*writeOp
	msgOps      []*msgOp

	// AblationRDMATargetIRQ, when set, charges a network interrupt on
	// the target node for every RDMA operation — deliberately breaking
	// the one-sided property to quantify its contribution (DESIGN.md
	// ablation 2).
	AblationRDMATargetIRQ bool
}

type groupMember struct {
	node int
	port string
}

// NewFabric creates a fabric on eng.
func NewFabric(eng *sim.Engine, cfg Config) *Fabric {
	cfg.sanitize()
	return &Fabric{
		Eng:         eng,
		Cfg:         cfg,
		nics:        make(map[int]*NIC),
		externals:   make(map[int]func(simos.Message)),
		groups:      make(map[string][]groupMember),
		established: make(map[string]bool),
	}
}

// MarkEstablished exempts a port from socket-layer drops: traffic to
// it flows over long-lived established connections (persistent HTTP
// sessions), which ride out receiver distress inside the TCP window
// rather than being dropped at the listen backlog. Per-poll monitoring
// exchanges are NOT established in this sense — each poll behaves like
// fresh connection traffic and takes the drop+RTO path when the
// receiver is distressed.
func (f *Fabric) MarkEstablished(port string) { f.established[port] = true }

// SetNodeLatency assigns node an extra one-way fabric latency on top
// of the global WireLatency: every channel message, one-sided
// operation and dial touching the node (as either endpoint) pays it.
// This is the NIC-latency axis of fleet heterogeneity — a slow or
// distant NIC delays traffic in both directions without perturbing
// any other node's timing. d <= 0 removes the entry.
func (f *Fabric) SetNodeLatency(node int, d sim.Time) {
	if d <= 0 {
		delete(f.nodeLat, node)
		return
	}
	if f.nodeLat == nil {
		f.nodeLat = make(map[int]sim.Time)
	}
	f.nodeLat[node] = d
}

// heteroLat is the extra latency a from->to traversal pays for the
// endpoints' per-node latencies. The empty-map fast path keeps
// homogeneous fabrics allocation- and branch-cheap.
func (f *Fabric) heteroLat(from, to int) sim.Time {
	if len(f.nodeLat) == 0 {
		return 0
	}
	return f.nodeLat[from] + f.nodeLat[to]
}

// xmit returns the wire time for a payload of size bytes.
func (f *Fabric) xmit(size int) sim.Time {
	return f.Cfg.WireLatency + sim.Time(int64(size)*8*int64(sim.Second)/f.Cfg.BandwidthBps)
}

// Attach gives node a NIC on this fabric.
func (f *Fabric) Attach(node *simos.Node) *NIC {
	if _, dup := f.nics[node.ID]; dup {
		panic(fmt.Sprintf("simnet: node %d already attached", node.ID))
	}
	nic := &NIC{fab: f, node: node}
	nic.ackFn = nic.ack
	f.nics[node.ID] = nic
	if id := node.ID; id >= 0 {
		if id >= len(f.byID) {
			f.byID = append(f.byID, make([]*NIC, id+1-len(f.byID))...)
		}
		f.byID[id] = nic
	}
	return nic
}

// NIC returns the adapter of the given node, or nil.
func (f *Fabric) NIC(node int) *NIC {
	if uint(node) < uint(len(f.byID)) {
		return f.byID[node]
	}
	return f.nics[node] // a negative id, or none
}

// RegisterExternal installs a sink for messages addressed to an
// external endpoint (a client machine outside the modeled cluster).
// Messages to it incur wire latency but no simulated host costs.
func (f *Fabric) RegisterExternal(id int, sink func(simos.Message)) {
	if id > ExternalBase {
		panic("simnet: external IDs must be <= ExternalBase")
	}
	f.externals[id] = sink
}

// Inject delivers a message from external endpoint from to a cluster
// node's port, modeling request arrival from a client machine: it
// crosses the wire and raises a receive interrupt like any sockets
// traffic.
func (f *Fabric) Inject(from, dst int, port string, size int, payload any) {
	f.deliver(from, dst, port, size, payload)
}

// deliver moves a message to dst (cluster node or external sink).
func (f *Fabric) deliver(from, dst int, port string, size int, payload any) {
	op := f.getMsgOp()
	op.m = simos.Message{From: from, Size: size, Payload: payload, SentAt: f.Eng.Now()}
	op.dst, op.port = dst, port
	op.attempt()
}

// SetFaults installs (or clears, with nil) a fault model.
func (f *Fabric) SetFaults(fm FaultModel) { f.Faults = fm }

// msgOp is one channel-semantics message from its send to its port
// handoff. Its stages — the end of the sender's kernel send burst, a
// delivery attempt, the arrival at the receiving NIC and the receive
// softirq — are methods bound once per struct, and the structs cycle
// through Fabric.msgOps, so a message crosses the fabric without
// allocating an event node, a closure or the op itself (readOp's
// pattern). A retransmission re-runs attempt on the same op.
type msgOp struct {
	f    *Fabric
	m    simos.Message
	dst  int
	port string
	try  int
	src  *NIC   // sender, during a Send's kernel burst
	then func() // Send's continuation
	rx   *NIC   // receiver, from arrive on

	sentFn, attemptFn, arriveFn, receiveFn func()
}

func (f *Fabric) getMsgOp() *msgOp {
	if n := len(f.msgOps); n > 0 {
		op := f.msgOps[n-1]
		f.msgOps[n-1] = nil
		f.msgOps = f.msgOps[:n-1]
		return op
	}
	op := &msgOp{f: f}
	op.sentFn, op.attemptFn = op.sent, op.attempt
	op.arriveFn, op.receiveFn = op.arrive, op.receive
	return op
}

// putMsgOp returns a finished op to the free list holding no reference.
func (f *Fabric) putMsgOp(op *msgOp) {
	op.m, op.port, op.try, op.src, op.then, op.rx = simos.Message{}, "", 0, nil, nil, nil
	f.msgOps = append(f.msgOps, op)
}

// attempt is one delivery attempt: the fault model may lose the packet
// (the sender's TCP retransmits after RTO — each retransmission faces
// the fault model again, so a flapping link can eat the whole retry
// budget) or delay it.
func (op *msgOp) attempt() {
	f := op.f
	extra := f.heteroLat(op.m.From, op.dst)
	if f.Faults != nil {
		v := f.Faults.Channel(op.m.From, op.dst, op.m.Size)
		if v.Drop {
			op.retry()
			return
		}
		extra += v.Delay
	}
	f.Eng.Post(f.xmit(op.m.Size)+extra, op.arriveFn)
}

// retry retransmits after RTO while the retry budget lasts; a message
// past it is lost.
func (op *msgOp) retry() {
	f := op.f
	if op.try < f.Cfg.MaxRetries {
		op.try++
		f.Eng.Post(f.Cfg.RTO, op.attemptFn)
		return
	}
	f.putMsgOp(op)
}

// arrive: the message reaches the destination — an external sink, or a
// cluster node's NIC, which raises the receive interrupt.
func (op *msgOp) arrive() {
	f := op.f
	if sink, ok := f.externals[op.dst]; ok {
		m := op.m
		f.putMsgOp(op)
		sink(m)
		return
	}
	nic := f.NIC(op.dst)
	if nic == nil {
		f.putMsgOp(op) // dropped: no such host
		return
	}
	if nic.node.Down() {
		// Dead host: the packet vanishes; the sender's TCP keeps
		// retransmitting into the void until its retry budget ends.
		op.retry()
		return
	}
	op.rx = nic
	nic.node.RaiseNetIRQ(op.receiveFn)
}

// receive is the softirq half of the receive interrupt: RX accounting,
// the socket-layer drop of a distressed receiver, the port handoff.
func (op *msgOp) receive() {
	f, nic := op.f, op.rx
	node := nic.node
	node.K.AddNetRx(op.m.Size)
	if !f.established[op.port] && op.try < f.Cfg.MaxRetries && f.dropAtSocket(node) {
		// Socket buffer overrun: the packet cost RX processing but never
		// reaches the application; the sender's TCP retransmits after RTO.
		nic.SockDrops++
		op.retry()
		return
	}
	m, port := op.m, op.port
	f.putMsgOp(op)
	if p := node.LookupPort(port); p != nil {
		p.Deliver(m)
	}
}

// dropAtSocket decides whether a channel-semantics message is lost at
// a distressed receiver: the drop probability rises with the node's
// connection backlog (queued + in-service work) beyond the threshold —
// the socket-buffer overrun regime of an overloaded server.
func (f *Fabric) dropAtSocket(node *simos.Node) bool {
	if f.Cfg.SockDropMax <= 0 {
		return false
	}
	over := node.K.Conns() - f.Cfg.SockDropThresh
	if over <= 0 {
		return false
	}
	p := f.Cfg.SockDropPer * float64(over)
	if p > f.Cfg.SockDropMax {
		p = f.Cfg.SockDropMax
	}
	return f.Eng.Rand().Float64() < p
}

// JoinGroup subscribes a node's port to a hardware multicast group
// (§6 of the paper: IBA multicast uses channel semantics).
func (f *Fabric) JoinGroup(group string, node int, port string) {
	f.groups[group] = append(f.groups[group], groupMember{node: node, port: port})
}

// NIC is one node's adapter: the attachment point for both channel and
// memory semantics.
type NIC struct {
	fab     *Fabric
	node    *simos.Node
	mrs     []*MR // ascending by key: keys are issued in order
	nextKey uint32
	ackFn   func() // n.ack, bound once

	// Connection/fd resource model (see qp.go). inbound lists the open
	// QPs other NICs hold to this node, for ResetListener.
	qpsOpen int
	inbound []*QP
	fdLimit int
	fdsUsed int

	// Counters (NIC firmware statistics).
	RDMAReads       uint64
	RDMAAtomics     uint64
	RDMAErrors      uint64
	SendsPosted     uint64
	SockDrops       uint64
	DoorbellBatches uint64
	Dials           uint64
	DialErrors      uint64
	QPResets        uint64
}

// Fabric returns the fabric the NIC is attached to.
func (n *NIC) Fabric() *Fabric { return n.fab }

// Send transmits a message using channel semantics from within task t:
// the kernel send path costs CPU in t's context, then the message
// crosses the fabric and interrupts the destination. then (optional)
// runs in t's context once the local send completes (not an ack).
func (n *NIC) Send(t *simos.Task, dst int, port string, size int, payload any, then func()) {
	f := n.fab
	cost := f.Cfg.SockTxCost + sim.Time(int64(size)*int64(sim.Second)/f.Cfg.TxCPUBps)
	op := f.getMsgOp()
	op.m = simos.Message{From: n.node.ID, Size: size, Payload: payload}
	op.dst, op.port, op.src, op.then = dst, port, n, then
	t.Compute(cost, op.sentFn)
}

// sent ends a Send's kernel burst: the message leaves, and the sender
// takes its ACK interrupts.
func (op *msgOp) sent() {
	f, n, then := op.f, op.src, op.then
	op.src, op.then = nil, nil
	size := op.m.Size
	n.SendsPosted++
	n.node.K.AddNetTx(size)
	op.m.SentAt = f.Eng.Now()
	op.attempt() // op is the fabric's from here on
	// TCP ACK clocking: one return interrupt per AckEvery bytes,
	// spread over the transmission. Large responses therefore
	// load the *sender's* interrupt path — kernel state that only
	// the kernel-direct schemes can observe promptly.
	acks := size / f.Cfg.AckEvery
	span := f.xmit(size)
	for i := 1; i <= acks; i++ {
		f.Eng.Post(span*sim.Time(i)/sim.Time(acks)+2*f.Cfg.WireLatency, n.ackFn)
	}
	if then != nil {
		then()
	}
}

// ack is one TCP ACK interrupt on the sender.
func (n *NIC) ack() { n.node.RaiseNetIRQ(nil) }

// Multicast sends a message to every member of a group using channel
// semantics (separate deliveries, one TX cost — switch replication).
func (n *NIC) Multicast(t *simos.Task, group string, size int, payload any, then func()) {
	f := n.fab
	t.Compute(f.Cfg.SockTxCost, func() {
		n.SendsPosted++
		n.node.K.AddNetTx(size)
		for _, m := range f.groups[group] {
			if m.node == n.node.ID {
				continue
			}
			f.deliver(n.node.ID, m.node, m.port, size, payload)
		}
		if then != nil {
			then()
		}
	})
}

// Source supplies the bytes of a memory region at DMA time. For a
// user-space buffer this is a closure over the buffer; for RDMA-Sync
// it is a closure that serializes the live kernel statistics (into
// Stage), so the value read is exact at the instant of the DMA.
type Source func() []byte

// Stage returns the fabric's staging buffer, size bytes long. A Source
// encodes into it and the NIC copies it out within the DMA instant, as
// writes and atomics stage their payloads; nothing is kept past it.
func (n *NIC) Stage(size int) []byte {
	if cap(n.fab.stage) < size {
		n.fab.stage = make([]byte, size)
	}
	return n.fab.stage[:size]
}

// StaticSource adapts a plain buffer.
func StaticSource(buf []byte) Source { return func() []byte { return buf } }

// MR is a registered (pinned) memory region addressable by remote
// RDMA operations.
type MR struct {
	key      uint32
	size     int
	source   Source
	writable bool
	sink     func([]byte) // consumes remote writes when writable
}

// Key returns the remote protection key of the region.
func (m *MR) Key() uint32 { return m.key }

// RegisterMR pins a read-only region of the given size served by src.
func (n *NIC) RegisterMR(src Source, size int) *MR {
	n.nextKey++
	mr := &MR{key: n.nextKey, size: size, source: src}
	n.mrs = append(n.mrs, mr)
	return mr
}

// RegisterWritableMR pins a region that also accepts remote writes,
// delivered to sink. Reads are served by src as usual. The sink
// borrows its slice for the duration of the call only — the fabric
// recycles the staging buffer afterwards — so a sink that keeps the
// bytes must copy them (every production sink copies into its own
// region buffer anyway, since that buffer is what reads serve).
func (n *NIC) RegisterWritableMR(src Source, size int, sink func([]byte)) *MR {
	mr := n.RegisterMR(src, size)
	mr.writable = true
	mr.sink = sink
	return mr
}

// Deregister unpins a region; later remote accesses fail with
// ErrBadKey.
func (n *NIC) Deregister(mr *MR) {
	if i, m := n.findMR(mr.key); m != nil {
		n.mrs = slices.Delete(n.mrs, i, i+1)
	}
}

// findMR returns the region registered under key and where it is in
// mrs, or nil.
func (n *NIC) findMR(key uint32) (int, *MR) {
	i, ok := slices.BinarySearchFunc(n.mrs, key, func(m *MR, k uint32) int { return cmp.Compare(m.key, k) })
	if !ok {
		return i, nil
	}
	return i, n.mrs[i]
}

// readOp is the state of one one-sided read in flight. Its stages are
// methods bound once per struct, and the structs cycle through
// Fabric.readOps, so a read schedules its events without allocating an
// event node, a closure or the op itself. The outcome goes to the
// posting task (the single-read verb: the op itself is the value its
// Resume hands over, and awaited releases it) or, for a work request of
// a doorbell batch, into results[slot] of batch.
type readOp struct {
	nic    *NIC // initiator
	tn     *NIC // target, known from arrive on
	target int
	key    uint32
	length int
	dst    []byte
	data   []byte
	err    error
	batch  *readBatch
	slot   int

	// The single-read verb's posting task and continuation.
	task *simos.Task
	then func(data []byte, err error)

	postFn, arriveFn, serviceFn, completeFn func()
	awaitedFn                               func(any)
}

// readBatch is the initiator's side of one doorbell batch in flight:
// its work requests complete into results by slot, and the one that
// brings remaining to zero resumes the posting task with all of them.
// Batches cycle through Fabric.readBatches.
type readBatch struct {
	task      *simos.Task
	results   []ReadResult
	remaining int
}

func (f *Fabric) getReadBatch() *readBatch {
	if n := len(f.readBatches); n > 0 {
		b := f.readBatches[n-1]
		f.readBatches[n-1] = nil
		f.readBatches = f.readBatches[:n-1]
		return b
	}
	return &readBatch{}
}

func (f *Fabric) getReadOp() *readOp {
	if n := len(f.readOps); n > 0 {
		op := f.readOps[n-1]
		f.readOps[n-1] = nil
		f.readOps = f.readOps[:n-1]
		return op
	}
	op := &readOp{}
	op.postFn, op.arriveFn, op.serviceFn, op.completeFn = op.post, op.arrive, op.service, op.complete
	op.awaitedFn = op.awaited
	return op
}

// putReadOp returns an op to the free list holding no reference.
func (f *Fabric) putReadOp(op *readOp) {
	op.nic, op.tn, op.dst, op.data, op.err, op.batch = nil, nil, nil, nil, nil, nil
	op.task, op.then = nil, nil
	f.readOps = append(f.readOps, op)
}

// postRead performs the fabric half of one one-sided read work
// request: fault consultation, request-descriptor flight, target NIC
// service, the DMA instant, and the completion flight back. op carries
// where the outcome goes (done, or batch and slot), which is delivered
// at the engine instant the completion would land in the initiator's
// CQ; never synchronously from postRead itself.
//
// dst, when it has capacity for the read, is the initiator-supplied
// DMA destination — the data lands in it and no per-op buffer is
// allocated, exactly as a real HCA scatters the completion into the
// posted WR's local buffer. A nil (or too small) dst falls back to
// allocating, preserving the legacy contract for callers that retain
// the slice.
func (n *NIC) postRead(op *readOp, target int, key uint32, length int, dst []byte) {
	f := n.fab
	n.RDMAReads++
	op.nic, op.target, op.key, op.length, op.dst = n, target, key, length, dst
	extra := f.heteroLat(n.node.ID, target)
	if f.Faults != nil {
		v := f.Faults.RDMA(n.node.ID, target)
		if v.Fail {
			op.fail(f.Cfg.RDMATimeout, ErrTimeout)
			return
		}
		extra += v.Delay
	}
	f.Eng.Post(f.xmit(16)+extra, op.arriveFn) // request descriptor to target NIC
}

// fail counts a transport error against the initiator and completes
// the read with err after d.
func (op *readOp) fail(d sim.Time, err error) {
	f := op.nic.fab
	f.countErr(op.nic)
	op.err = err
	f.Eng.Post(d, op.completeFn)
}

// arrive: the request descriptor reaches the target NIC.
func (op *readOp) arrive() {
	f := op.nic.fab
	op.tn = f.NIC(op.target)
	if op.tn == nil {
		op.err = ErrNoRoute
		op.complete()
		return
	}
	if op.tn.node.Down() {
		op.fail(f.Cfg.RDMATimeout, ErrTimeout)
		return
	}
	f.Eng.Post(f.Cfg.NICService, op.serviceFn)
}

// service: the target NIC validates the request and performs the DMA.
func (op *readOp) service() {
	f := op.nic.fab
	_, mr := op.tn.findMR(op.key)
	if mr == nil {
		op.fail(f.xmit(0), ErrBadKey)
		return
	}
	if op.length > mr.size {
		op.fail(f.xmit(0), ErrLength)
		return
	}
	// The DMA instant: capture the region bytes now, into the
	// initiator's buffer when one was posted.
	src := mr.source()
	if op.length < len(src) {
		src = src[:op.length]
	}
	if cap(op.dst) >= len(src) {
		op.data = op.dst[:len(src)]
	} else {
		op.data = make([]byte, len(src))
	}
	copy(op.data, src)
	if f.AblationRDMATargetIRQ {
		op.tn.node.RaiseNetIRQ(nil)
	}
	f.Eng.Post(f.xmit(len(op.data)), op.completeFn)
}

// complete hands the outcome to the posting task, or to the op's batch.
// A batch's op — and a finished batch — go back to their free lists
// first, holding no reference, so the continuation may post the next
// read into them; a single read's op waits in the task until awaited,
// unless the task is no longer there to take it.
func (op *readOp) complete() {
	f := op.nic.fab
	b, slot, data, err := op.batch, op.slot, op.data, op.err
	if b == nil {
		if !op.task.Resume(op) {
			f.putReadOp(op)
		}
		return
	}
	f.putReadOp(op)
	b.results[slot] = ReadResult{Data: data, Err: err}
	if b.remaining--; b.remaining == 0 {
		t, results := b.task, b.results
		b.task, b.results = nil, nil
		f.readBatches = append(f.readBatches, b)
		t.Resume(results)
	}
}

// RDMARead posts a one-sided read of [0, length) of the remote region
// (target node, key) from task t. The task blocks until the completion
// arrives; then runs with the data read at the remote DMA instant.
// The target host CPU is never involved.
func (n *NIC) RDMARead(t *simos.Task, target int, key uint32, length int, then func(data []byte, err error)) {
	n.RDMAReadInto(t, target, key, length, nil, then)
}

// RDMAReadInto is RDMARead with an initiator-supplied destination
// buffer: when cap(buf) >= length the completion data aliases buf and
// the read allocates nothing. The caller owns buf and must not repost
// it until then has run.
func (n *NIC) RDMAReadInto(t *simos.Task, target int, key uint32, length int, buf []byte, then func(data []byte, err error)) {
	op := n.fab.getReadOp()
	op.nic, op.task, op.then = n, t, then
	op.target, op.key, op.length, op.dst = target, key, length, buf
	t.Compute(n.fab.Cfg.RDMAPostCost, op.postFn)
}

// post ends a single read's post burst: the task waits for the
// completion, and the work request goes out.
func (op *readOp) post() {
	op.task.Await(op.awaitedFn)
	op.nic.postRead(op, op.target, op.key, op.length, op.dst)
}

// awaited runs a single read's continuation in the posting task, the
// op back on the free list first.
func (op *readOp) awaited(any) {
	then, data, err := op.then, op.data, op.err
	op.nic.fab.putReadOp(op)
	then(data, err)
}

// ReadReq describes one work request of a doorbell-batched read.
type ReadReq struct {
	Target int
	Key    uint32
	Length int
	// Buf, when it has capacity for Length, is the initiator-supplied
	// DMA destination for this WR: the completion's Data aliases it
	// and the read allocates nothing (the reusable per-shard scratch
	// path). The caller must not repost or mutate it until the batch
	// completion has been consumed.
	Buf []byte
}

// ReadResult is the completion of one work request in a batch.
type ReadResult struct {
	Data []byte
	Err  error
}

// RDMAReadBatchInto posts len(reqs) one-sided reads with a single
// doorbell ring: the initiator pays RDMAPostCost once for the doorbell
// plus RDMAPostWRCost per additional work request, the reads traverse the
// fabric concurrently, and the posting task wakes exactly once with
// every completion — the coalesced-CQ-poll pattern of doorbell-batched
// verbs, rather than one post+wakeup per read. Results are positional:
// results[i] answers reqs[i]; per-request failures (bad key, dead
// target) land in that slot's Err without disturbing its neighbours.
//
// Completions land in a caller-owned results scratch: when
// cap(scratch) >= len(reqs) the completion slice aliases it and the
// batch allocates no result storage (pair it with per-WR ReadReq.Buf
// destinations for a fully allocation-free sweep).
// The caller must not repost the scratch until then has consumed it.
func (n *NIC) RDMAReadBatchInto(t *simos.Task, reqs []ReadReq, scratch []ReadResult, then func(results []ReadResult)) {
	f := n.fab
	if len(reqs) == 0 {
		t.Compute(0, func() { then(nil) })
		return
	}
	cost := f.Cfg.RDMAPostCost + sim.Time(len(reqs)-1)*f.Cfg.RDMAPostWRCost
	t.Compute(cost, func() {
		t.Await(func(v any) { then(v.([]ReadResult)) })
		n.DoorbellBatches++
		var results []ReadResult
		if cap(scratch) >= len(reqs) {
			results = scratch[:len(reqs)]
			for i := range results {
				results[i] = ReadResult{}
			}
		} else {
			results = make([]ReadResult, len(reqs))
		}
		b := f.getReadBatch()
		b.task, b.results, b.remaining = t, results, len(reqs)
		for i := range reqs {
			rq := &reqs[i]
			op := f.getReadOp()
			op.batch, op.slot = b, i
			n.postRead(op, rq.Target, rq.Key, rq.Length, rq.Buf)
		}
	})
}

// RDMAWrite posts a one-sided write of data into the remote region.
// Writes to regions registered read-only fail with ErrPermission (the
// paper's protection for exposed kernel structures).
func (n *NIC) RDMAWrite(t *simos.Task, target int, key uint32, data []byte, then func(err error)) {
	f := n.fab
	op := f.getWriteOp()
	op.nic, op.task, op.target, op.key, op.then = n, t, target, key, then
	// Stage the payload in the op's own buffer: captured at post time
	// (the WR's local buffer is owned by the HCA from here) and reused
	// by the op's next write.
	op.payload = append(op.payload[:0], data...)
	op.next = writePosted
	t.Compute(f.Cfg.RDMAPostCost, op.stepFn)
}

// writeOp is one one-sided write from its post to the completion
// reaching the posting task: readOp's pattern for writes. Its stages —
// the end of the post burst, the arrival at the target NIC, the
// responder's service and the completion — run one at a time through
// step, bound once; the structs cycle through Fabric.writeOps with their
// staging buffers, and the op itself is the value the completion's
// Resume hands the task, so a steady-state write allocates nothing,
// however many are in flight. The pool keeps every op the largest burst
// of writes in flight needed, so the op holds one bound stepper, not
// one closure per stage.
type writeOp struct {
	nic     *NIC // initiator
	tn      *NIC // target, known from arrive on
	task    *simos.Task
	target  int
	key     uint32
	next    writeStage
	payload []byte // the staged data; the array stays with the op
	err     error
	then    func(err error)

	stepFn    func()    // op.step
	awaitedFn func(any) // op.awaited
}

// writeStage is the stage a writeOp's step runs next.
type writeStage uint8

const (
	writePosted   writeStage = iota // the post burst ended
	writeArrived                    // the write reached the target NIC
	writeServiced                   // the responder serves it
	writeDone                       // the completion reaches the task
)

// step runs the op's next stage.
func (op *writeOp) step() {
	switch op.next {
	case writePosted:
		op.post()
	case writeArrived:
		op.arrive()
	case writeServiced:
		op.service()
	default:
		op.complete()
	}
}

// after runs stage s after d.
func (op *writeOp) after(d sim.Time, s writeStage) {
	op.next = s
	op.nic.fab.Eng.Post(d, op.stepFn)
}

func (f *Fabric) getWriteOp() *writeOp {
	if n := len(f.writeOps); n > 0 {
		op := f.writeOps[n-1]
		f.writeOps[n-1] = nil
		f.writeOps = f.writeOps[:n-1]
		return op
	}
	op := &writeOp{}
	op.stepFn, op.awaitedFn = op.step, op.awaited
	return op
}

// putWriteOp returns an op to the free list holding no reference but
// its staging buffer.
func (f *Fabric) putWriteOp(op *writeOp) {
	op.nic, op.tn, op.task, op.err, op.then = nil, nil, nil, nil, nil
	op.payload = op.payload[:0]
	f.writeOps = append(f.writeOps, op)
}

// post ends the post burst: the task waits for the completion, the
// fault model has its say, and the request descriptor and payload go
// out.
func (op *writeOp) post() {
	n := op.nic
	f := n.fab
	op.task.Await(op.awaitedFn)
	extra := f.heteroLat(n.node.ID, op.target)
	if f.Faults != nil {
		v := f.Faults.RDMA(n.node.ID, op.target)
		if v.Fail {
			f.countErr(n)
			op.finishAfter(f.Cfg.RDMATimeout, ErrTimeout)
			return
		}
		extra += v.Delay
	}
	op.after(f.xmit(16+len(op.payload))+extra, writeArrived)
}

// arrive: the write reaches the target NIC.
func (op *writeOp) arrive() {
	f := op.nic.fab
	op.tn = f.NIC(op.target)
	if op.tn == nil {
		op.err = ErrNoRoute
		op.complete()
		return
	}
	if op.tn.node.Down() {
		f.countErr(op.nic)
		op.finishAfter(f.Cfg.RDMATimeout, ErrTimeout)
		return
	}
	op.after(f.Cfg.NICService, writeServiced)
}

// service: the responder validates the write and lands the payload.
func (op *writeOp) service() {
	f, tn := op.nic.fab, op.tn
	_, mr := tn.findMR(op.key)
	var err error
	switch {
	case mr == nil:
		err = ErrBadKey
	case !mr.writable:
		err = ErrPermission
	case len(op.payload) > mr.size:
		err = ErrLength
	default:
		if f.AblationRDMATargetIRQ {
			tn.node.RaiseNetIRQ(nil)
		}
		mr.sink(op.payload)
	}
	if err != nil {
		f.countErr(op.nic)
	}
	op.finishAfter(f.xmit(0), err)
}

// finishAfter completes the write with err after d.
func (op *writeOp) finishAfter(d sim.Time, err error) {
	op.err = err
	op.after(d, writeDone)
}

// complete hands the outcome to the posting task; the op waits in it
// until awaited, unless the task is no longer there to take it.
func (op *writeOp) complete() {
	if !op.task.Resume(op) {
		op.nic.fab.putWriteOp(op)
	}
}

// awaited runs the write's continuation in the posting task, the op
// back on the free list first.
func (op *writeOp) awaited(any) {
	then, err := op.then, op.err
	op.nic.fab.putWriteOp(op)
	then(err)
}

// RDMACompareSwap posts a one-sided 64-bit atomic compare-and-swap on
// the first 8 bytes of the remote writable region (IB masked-atomic
// style, little-endian). The responder NIC performs the
// read-compare-write; the target host CPU is never involved, which is
// what lets claim acquisition and renewal survive a frozen or wedged
// host. then receives the value the region held just before the
// operation: prev == compare means the swap was applied.
func (n *NIC) RDMACompareSwap(t *simos.Task, target int, key uint32, compare, swap uint64, then func(prev uint64, err error)) {
	f := n.fab
	t.Compute(f.Cfg.RDMAPostCost, func() {
		t.Await(func(v any) {
			c := v.(rdmaCompletion)
			then(c.prev, c.err)
		})
		n.postCompSwap(target, key, compare, swap, func(prev uint64, err error) {
			t.Resume(rdmaCompletion{prev: prev, err: err})
		})
	})
}

// postCompSwap performs one posted compare-and-swap work request: the
// fabric traversal, the responder-side atomic, and the completion
// callback. Shared by the single-CAS verb and the doorbell-batched
// form; the caller has already paid the post cost.
func (n *NIC) postCompSwap(target int, key uint32, compare, swap uint64, done func(prev uint64, err error)) {
	f := n.fab
	n.RDMAAtomics++
	extra := f.heteroLat(n.node.ID, target)
	if f.Faults != nil {
		v := f.Faults.RDMA(n.node.ID, target)
		if v.Fail {
			f.countErr(n)
			f.Eng.Post(f.Cfg.RDMATimeout, func() { done(0, ErrTimeout) })
			return
		}
		extra += v.Delay
	}
	f.Eng.Post(f.xmit(32)+extra, func() { // descriptor + compare + swap operands
		tn := f.NIC(target)
		if tn == nil {
			done(0, ErrNoRoute)
			return
		}
		if tn.node.Down() {
			f.countErr(n)
			f.Eng.Post(f.Cfg.RDMATimeout, func() { done(0, ErrTimeout) })
			return
		}
		f.Eng.Post(f.Cfg.NICService, func() {
			_, mr := tn.findMR(key)
			switch {
			case mr == nil:
				tn.fab.countErr(n)
				f.Eng.Post(f.xmit(0), func() { done(0, ErrBadKey) })
				return
			case !mr.writable:
				tn.fab.countErr(n)
				f.Eng.Post(f.xmit(0), func() { done(0, ErrPermission) })
				return
			case mr.size < 8:
				tn.fab.countErr(n)
				f.Eng.Post(f.xmit(0), func() { done(0, ErrLength) })
				return
			}
			// The atomic instant: read, compare and (maybe) write
			// back within one NIC service slot. The engine is the
			// serialization point, exactly as responder-side atomic
			// units serialize concurrent atomics in hardware. The
			// scratch copy exists only so the sink observes a
			// fully-formed post-swap image.
			f.stage = append(f.stage[:0], mr.source()...)
			cur := f.stage
			prev := binary.LittleEndian.Uint64(cur[:8])
			if prev == compare {
				binary.LittleEndian.PutUint64(cur[:8], swap)
				mr.sink(cur)
			}
			if f.AblationRDMATargetIRQ {
				tn.node.RaiseNetIRQ(nil)
			}
			f.Eng.Post(f.xmit(8), func() { done(prev, nil) })
		})
	})
}

// CASReq describes one work request of a doorbell-batched
// compare-and-swap.
type CASReq struct {
	Target  int
	Key     uint32
	Compare uint64
	Swap    uint64
}

// CASResult is the completion of one work request in a CAS batch:
// Prev == the request's Compare means that swap was applied.
type CASResult struct {
	Prev uint64
	Err  error
}

// RDMACompareSwapBatch posts len(reqs) one-sided compare-and-swaps
// with a single doorbell ring, exactly as RDMAReadBatchInto batches reads:
// the initiator pays RDMAPostCost once plus RDMAPostWRCost per
// additional work request, the atomics traverse the fabric
// concurrently (each serialized at its responder NIC), and the posting
// task wakes exactly once with every completion. Results are
// positional; per-request failures land in that slot's Err. A claim
// manager renewing S shard claims rings one doorbell per cycle instead
// of S.
func (n *NIC) RDMACompareSwapBatch(t *simos.Task, reqs []CASReq, then func(results []CASResult)) {
	f := n.fab
	if len(reqs) == 0 {
		t.Compute(0, func() { then(nil) })
		return
	}
	cost := f.Cfg.RDMAPostCost + sim.Time(len(reqs)-1)*f.Cfg.RDMAPostWRCost
	t.Compute(cost, func() {
		t.Await(func(v any) { then(v.([]CASResult)) })
		n.DoorbellBatches++
		results := make([]CASResult, len(reqs))
		remaining := len(reqs)
		for i, rq := range reqs {
			i, rq := i, rq
			n.postCompSwap(rq.Target, rq.Key, rq.Compare, rq.Swap, func(prev uint64, err error) {
				results[i] = CASResult{Prev: prev, Err: err}
				if remaining--; remaining == 0 {
					t.Resume(results)
				}
			})
		}
	})
}

type rdmaCompletion struct {
	prev uint64
	err  error
}

func (f *Fabric) countErr(n *NIC) { n.RDMAErrors++ }
