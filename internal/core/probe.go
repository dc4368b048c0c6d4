package core

import (
	"errors"
	"fmt"

	"rdmamon/internal/connpool"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// ErrProbeTimeout reports a probe whose reply missed the deadline.
var ErrProbeTimeout = errors.New("core: probe timed out")

// Prober is the front-end half of a monitoring scheme for one back-end
// server: it periodically fetches that server's load record and keeps
// the most recent one for the dispatcher.
type Prober struct {
	Scheme  Scheme
	Backend int

	front *simos.Node
	fnic  *simnet.NIC
	agent *Agent

	replyPort string
	poll      sim.Time
	decode    sim.Time

	// What a steady-state probe touches sits together — the cached
	// record, then Trend, Health and Latency in adjacent cache lines —
	// and cold, mode-specific state stays behind a pointer (view): at
	// 8192 back-ends the layout of this struct is the sweep's working
	// set, and a Prober must stay within the 576-byte size class.
	last   wire.LoadRecord
	lastAt sim.Time
	has    bool

	// Trend accumulates this back-end's load-index slope from every
	// sample that arrives (ring reads fold whole windows; point probes
	// and pushes fold one sample, de-duplicated by kernel timestamp).
	Trend TrendTracker
	// Health tracks this back-end's probe-driven state machine.
	Health HealthTracker
	// Latency records round-trip probe latency in microseconds.
	Latency metrics.Sample

	// readBuf is the reusable DMA buffer one-sided reads land in: the
	// steady-state sweep posts it over and over instead of allocating a
	// region per probe.
	readBuf []byte
	// view is the prober-owned decode target for history-ring reads,
	// allocated on the first ring decode: 3.9 KB that a back-end whose
	// agent exports no ring never needs.
	view *wire.RingView

	// RingSamples counts history samples folded from ring reads — the
	// observation coverage one-sided reads bought.
	RingSamples uint64
	// TornRetries counts ring snapshots re-read because they caught the
	// writer mid-update (seqlock discipline; benign, bounded).
	TornRetries uint64

	// Timeout bounds one probe; 0 disables the deadline (the seed
	// behaviour, preserved so fault-free experiments are unchanged).
	// On the socket path a probe whose reply misses the deadline
	// finishes with ErrProbeTimeout instead of blocking the cycle
	// forever behind a dead back-end.
	Timeout sim.Time

	// Failover, if non-nil, arms the transport breaker for an RDMA
	// scheme: consecutive RDMA failures trip probing onto the agent's
	// standby socket channel, a low-rate background re-arm probe
	// retests the RDMA path, and only consecutive re-arm successes
	// fail back. Requires the agent to serve the socket port (see
	// AgentConfig.StandbySocket) and a non-zero Timeout, or a fallback
	// probe of a dead back-end would block the cycle forever.
	Failover *Failover

	// LastTransport is the transport that served the most recent
	// completed probe (valid inside OnRecord and after ProbeOnce).
	LastTransport Transport
	// Fallbacks counts probes served via the standby socket channel.
	Fallbacks uint64
	// ReArms counts background re-arm RDMA probes issued while tripped.
	ReArms uint64

	// Errors counts failed probes (bad key, torn record, timeout ...).
	Errors int
	// Timeouts counts the subset of Errors that were deadline expiries.
	Timeouts int
	// OnRecord, if set, observes every record as it arrives.
	OnRecord func(rec wire.LoadRecord, at sim.Time)

	task    *simos.Task
	stopped bool
}

// NewProber creates the front-end prober state for agent without a
// polling task; the caller drives it via ProbeOnce (used by Monitor's
// single monitoring process).
func NewProber(front *simos.Node, fnic *simnet.NIC, agent *Agent) *Prober {
	return &Prober{
		Scheme:    agent.Scheme,
		Backend:   agent.node.ID,
		front:     front,
		fnic:      fnic,
		agent:     agent,
		replyPort: fmt.Sprintf("%s-reply-%d", agent.Port(), agent.node.ID),
		decode:    2 * sim.Microsecond,
	}
}

// StartProber creates the front-end prober for agent and begins
// polling every poll with its own task. A non-positive poll uses
// DefaultInterval. Used for single-backend micro-benchmarks; a
// multi-backend front-end should use StartMonitor, which drives all
// probers from one monitoring process as in the paper.
func StartProber(front *simos.Node, fnic *simnet.NIC, agent *Agent, poll sim.Time) *Prober {
	if poll <= 0 {
		poll = DefaultInterval
	}
	p := NewProber(front, fnic, agent)
	p.poll = poll
	p.task = front.Spawn(fmt.Sprintf("rmon-probe-%d", agent.node.ID), func(tk *simos.Task) {
		var loop func()
		loop = func() {
			if p.stopped {
				tk.Exit()
				return
			}
			p.ProbeOnce(tk, func(wire.LoadRecord, error) {
				tk.Sleep(p.poll, loop)
			})
		}
		loop()
	})
	return p
}

// Latest returns the most recent record and its arrival time.
func (p *Prober) Latest() (wire.LoadRecord, sim.Time, bool) {
	return p.last, p.lastAt, p.has
}

// Stop ends the polling loop.
func (p *Prober) Stop() {
	p.stopped = true
	if p.task != nil {
		p.task.Exit()
	}
}

// ProbeOnce fetches one load record in the context of task tk (which
// must run on the front-end node) and delivers it to then. The probe
// path depends on the scheme: a socket request/response round trip
// involving the back-end CPU, or a one-sided RDMA read that does not.
// With an armed Failover, a tripped breaker reroutes RDMA probes onto
// the agent's standby socket channel and schedules background re-arm
// reads of the RDMA path.
func (p *Prober) ProbeOnce(tk *simos.Task, then func(wire.LoadRecord, error)) {
	start := p.front.Eng.Now()
	if !p.Scheme.UsesRDMA() {
		p.probeSocket(tk, func(rec wire.LoadRecord, err error) {
			p.finishProbe(start, rec, err, TransportSocket, then)
		})
		return
	}
	fo := p.Failover
	if fo != nil && fo.Tripped() {
		p.probeTripped(tk, start, then)
		return
	}
	p.probeRDMA(tk, func(rec wire.LoadRecord, err error) {
		p.rdmaOutcome(tk, start, rec, err, then)
	})
}

// finishProbe applies one completed probe's outcome to the prober's
// bookkeeping (record cache, health machine, latency sample) and hands
// it to the caller. start is when the probe — or the doorbell batch
// carrying it — was posted.
func (p *Prober) finishProbe(start sim.Time, rec wire.LoadRecord, err error, tr Transport, then func(wire.LoadRecord, error)) {
	p.LastTransport = tr
	if err == nil {
		p.last = rec
		p.lastAt = p.front.Eng.Now()
		p.has = true
		// Ring reads already folded this window into Trend; the
		// timestamp guard makes this a no-op then.
		p.Trend.ObserveRecord(rec)
		if tr == TransportSocket && p.Scheme.UsesRDMA() {
			p.Health.DegradedOK()
		} else {
			p.Health.OK()
		}
		if p.OnRecord != nil {
			p.OnRecord(rec, p.lastAt)
		}
	} else {
		p.Errors++
		p.Health.Fail()
	}
	p.Latency.Add(float64((p.front.Eng.Now() - start) / sim.Microsecond))
	then(rec, err)
}

// rdmaOutcome resolves the result of an untripped RDMA probe —
// standalone or one slot of a doorbell batch — including the breaker
// accounting and the same-cycle socket fallback.
func (p *Prober) rdmaOutcome(tk *simos.Task, start sim.Time, rec wire.LoadRecord, err error, then func(wire.LoadRecord, error)) {
	fo := p.Failover
	if err == nil {
		if fo != nil {
			fo.PrimaryOK()
		}
		p.finishProbe(start, rec, nil, TransportRDMA, then)
		return
	}
	if fo == nil {
		p.finishProbe(start, wire.LoadRecord{}, err, TransportRDMA, then)
		return
	}
	fo.PrimaryFail()
	// Degrade to the standby for this cycle too: if only the
	// RDMA path is broken (stale rkey, NIC trouble) the record
	// is still one socket round trip away, and the staleness
	// window stays ~one sweep instead of TripAfter sweeps. A
	// genuinely dead back-end fails both paths and the health
	// machine sees a plain failure.
	p.Fallbacks++
	p.probeSocket(tk, func(rec wire.LoadRecord, serr error) {
		if serr == nil {
			p.finishProbe(start, rec, nil, TransportSocket, then)
		} else {
			p.finishProbe(start, wire.LoadRecord{}, err, TransportRDMA, then)
		}
	})
}

// probeTripped carries a probe over the standby socket channel while
// the breaker is tripped, issuing the occasional background re-arm
// read of the RDMA path.
func (p *Prober) probeTripped(tk *simos.Task, start sim.Time, then func(wire.LoadRecord, error)) {
	fo := p.Failover
	p.Fallbacks++
	p.probeSocket(tk, func(rec wire.LoadRecord, err error) {
		if !fo.ShouldReArm() {
			p.finishProbe(start, rec, err, TransportSocket, then)
			return
		}
		// Background re-arm: test the RDMA path without trusting it for
		// data until it has proven itself FailBackAfter times in a row.
		// The re-arm outcome never pollutes this probe's result.
		p.ReArms++
		p.probeRDMA(tk, func(_ wire.LoadRecord, rerr error) {
			if rerr == nil {
				fo.ReArmOK()
			} else {
				fo.ReArmFail()
			}
			p.finishProbe(start, rec, err, TransportSocket, then)
		})
	})
}

// batchEligible reports whether this back-end's next probe can ride a
// doorbell-batched multi-WR post: only one-sided RDMA probes batch,
// and a tripped breaker routes the probe through ProbeOnce's socket
// path (which also owns re-arm scheduling) instead.
func (p *Prober) batchEligible() bool {
	return p.Scheme.UsesRDMA() && (p.Failover == nil || !p.Failover.Tripped())
}

// maxTornRetries bounds the seqlock re-read loop: a ring snapshot that
// keeps tearing this many times in a row is treated as a real error
// rather than spinning against a wedged writer.
const maxTornRetries = 3

// readLen returns the one-sided read size for this back-end: the whole
// history ring when the agent exports one, a single record otherwise.
func (p *Prober) readLen() int {
	if k := p.agent.RingK(); k > 0 {
		return wire.RingSize(k)
	}
	return wire.RecordSize
}

// readInto returns the prober's DMA buffer sized for the next read,
// growing it only when the agent's region grew (re-registration with a
// larger ring).
func (p *Prober) readInto(n int) []byte {
	if cap(p.readBuf) < n {
		p.readBuf = make([]byte, n)
	}
	return p.readBuf[:n]
}

// decodeRead decodes a one-sided read completion in place: a history
// ring (whose fresh samples fold into Trend) or a bare record. No
// allocation either way once the first ring read has created the
// prober-owned view.
func (p *Prober) decodeRead(data []byte) (wire.LoadRecord, error) {
	if p.agent.RingK() > 0 {
		if p.view == nil {
			p.view = new(wire.RingView)
		}
		if err := wire.DecodeRingInto(p.view, data); err != nil {
			return wire.LoadRecord{}, err
		}
		p.RingSamples += uint64(p.Trend.ObserveRing(p.view))
		return p.view.Newest(), nil
	}
	var rec wire.LoadRecord
	err := wire.DecodeInto(&rec, data)
	return rec, err
}

// probeRDMA issues the one-sided read path and decodes the record. A
// torn ring snapshot (writer mid-update at the DMA instant) is simply
// re-read — the seqlock contract — up to maxTornRetries times.
func (p *Prober) probeRDMA(tk *simos.Task, then func(wire.LoadRecord, error)) {
	p.probeRDMATry(tk, 0, then)
}

func (p *Prober) probeRDMATry(tk *simos.Task, attempt int, then func(wire.LoadRecord, error)) {
	n := p.readLen()
	p.fnic.RDMAReadInto(tk, p.Backend, p.agent.RKey(), n, p.readInto(n), func(data []byte, err error) {
		if err != nil {
			if err == simnet.ErrTimeout {
				p.Timeouts++
			}
			then(wire.LoadRecord{}, err)
			return
		}
		tk.Compute(p.decode, func() {
			rec, derr := p.decodeRead(data)
			if derr == wire.ErrTorn && attempt < maxTornRetries {
				p.TornRetries++
				p.probeRDMATry(tk, attempt+1, then)
				return
			}
			then(rec, derr)
		})
	})
}

// probeSocket issues the request/response path against the agent's
// report thread and decodes the reply.
func (p *Prober) probeSocket(tk *simos.Task, then func(wire.LoadRecord, error)) {
	rp := p.front.Port(p.replyPort)
	// Flush replies that arrived after a previous probe's deadline, so
	// a late answer is never matched against this probe's request.
	rp.Drain()
	p.fnic.Send(tk, p.Backend, p.agent.Port(), ProbeReqSize, probeReq{ReplyPort: p.replyPort}, func() {
		tk.RecvTimeout(rp, p.Timeout, func(m simos.Message, ok bool) {
			if !ok {
				p.Timeouts++
				then(wire.LoadRecord{}, ErrProbeTimeout)
				return
			}
			tk.Compute(p.decode, func() {
				data, ok := m.Payload.([]byte)
				if !ok {
					then(wire.LoadRecord{}, fmt.Errorf("core: unexpected probe reply %T", m.Payload))
					return
				}
				rec, derr := wire.Decode(data)
				then(rec, derr)
			})
		})
	})
}

// Monitor is the front-end monitoring process of the paper: a single
// task that polls every back-end in sequence each period. The
// sequential cycle matters: with socket schemes a slow (loaded)
// back-end delays the probes of every back-end behind it in the cycle,
// compounding staleness exactly when accuracy is needed most. RDMA
// probes keep the cycle tight regardless of back-end load.
//
// At hundreds of back-ends even a tight sequential cycle serializes
// badly, so the monitor can be sharded and batched (MonitorConfig):
// S shard tasks each sweep their own slice of back-ends, posting
// eligible RDMA probes as doorbell-batched multi-WR reads instead of
// one at a time. Per-backend Failover/Health/lease semantics are
// untouched — batching changes when reads are posted, never how their
// outcomes are applied.
type Monitor struct {
	Scheme  Scheme
	Probers map[int]*Prober
	order   []int
	front   *simos.Node
	fnic    *simnet.NIC
	cfg     MonitorConfig

	// byID mirrors Probers as a slice indexed by back-end id: the
	// dispatch path asks Latest/Health/Slope once per candidate per
	// pick, where hashing the map was a measurable share of a decision.
	byID []*Prober

	// Cycles counts completed polling sweeps. With multiple shards it
	// is the minimum over per-shard sweep counters: "every back-end has
	// been swept at least Cycles times".
	Cycles uint64

	// CycleTime samples per-shard sweep durations in microseconds.
	CycleTime metrics.Sample

	// Sink is the hybrid scheme's aggregation region (nil unless
	// MonitorConfig.Hybrid is set on an RDMA scheme): one writable slot
	// per back-end that agents push delta records into.
	Sink *PushSink
	// LeaseValid, if set, reports whether this monitor currently holds
	// primaryship. A monitor without the lease never decays a poll
	// period — a standby keeps the fast sweep so its view is warm at
	// takeover. nil means "always held" (unleased deployments).
	LeaseValid func() bool

	// Decayed counts probe slots skipped because the back-end's
	// adaptive period had not elapsed — the work requests the hybrid
	// scheme saved.
	Decayed uint64
	// StalePushes counts pushed records dropped for arriving out of
	// order (older kernel timestamp or replayed push sequence than the
	// cached record).
	StalePushes uint64

	// PoolSheds counts probe slots deferred because a pool budget
	// (conns, fds, dial rate, breaker) was exhausted; PoolShedHot is
	// the subset that hit a hot back-end (should stay ~0 — the
	// degradation ladder sheds quiet targets first).
	PoolSheds   uint64
	PoolShedHot uint64
	// FenceRejects counts one-sided completions rejected by the pool's
	// epoch fence (conn recycled while the read was in flight) and
	// replayed instead of served — each one is a stale read that was
	// caught, never one that was served.
	FenceRejects uint64

	pool *connpool.Pool[int, *simnet.QP]

	// hyb is indexed by back-end id like byID; a nil entry (or a nil
	// slice, without the hybrid engine) means no adaptive-poll state.
	hyb []*hybridState

	shardCycles []uint64
	tasks       []*simos.Task
	stopped     bool
}

// hybridState is the monitor's per-backend adaptive-poll bookkeeping.
type hybridState struct {
	ctrl    PeriodController
	due     sim.Time // next probe not before this instant
	obs     wire.LoadRecord
	has     bool
	pushSeq uint32 // highest push sequence accepted
}

// MonitorConfig shapes the probe engine. The zero value reproduces
// the paper's monitor exactly: one task, strictly sequential probes.
type MonitorConfig struct {
	// Shards is the number of monitoring tasks; back-ends are split
	// across them in contiguous slices (default 1).
	Shards int
	// Batch is the maximum number of one-sided reads posted per
	// doorbell batch (default 1 = sequential ProbeOnce calls). Only
	// RDMA probes with an untripped breaker batch; socket probes and
	// tripped back-ends take the sequential path unchanged.
	Batch int
	// Hybrid, when non-nil on an RDMA scheme, turns on the hybrid
	// push/pull engine: the monitor hosts a PushSink aggregation region
	// and adapts each back-end's poll period to its change rate (see
	// hybrid.go). Socket schemes ignore it — there is no one-sided
	// write path to trade probes against.
	Hybrid *HybridConfig
	// Pool, when non-nil on an RDMA scheme, routes every untripped
	// one-sided probe through a connection-lifecycle pool (see
	// internal/connpool and pool.go): connections are acquired per
	// probe under explicit budgets, recycled conns are epoch-fenced,
	// and budget exhaustion sheds quiet back-ends first. nil preserves
	// the seed behaviour bit-for-bit.
	Pool *connpool.Config
	// PoolSeed pins the pool's backoff jitter for deterministic
	// replay (0 keeps the entropy seed).
	PoolSeed int64
}

func (c MonitorConfig) withDefaults(n int) MonitorConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if n > 0 && c.Shards > n {
		c.Shards = n
	}
	return c
}

// StartMonitor starts the monitoring process for all agents on the
// front-end node, polling each every poll — the paper's sequential
// single-task monitor.
func StartMonitor(front *simos.Node, fnic *simnet.NIC, agents []*Agent, poll sim.Time) *Monitor {
	return StartMonitorCfg(front, fnic, agents, poll, MonitorConfig{})
}

// StartMonitorCfg starts the monitoring process with explicit
// sharding/batching. MonitorConfig{} (or {1, 1}) is byte-for-byte the
// sequential monitor.
func StartMonitorCfg(front *simos.Node, fnic *simnet.NIC, agents []*Agent, poll sim.Time, cfg MonitorConfig) *Monitor {
	if poll <= 0 {
		poll = DefaultInterval
	}
	cfg = cfg.withDefaults(len(agents))
	m := &Monitor{Probers: make(map[int]*Prober), front: front, fnic: fnic, cfg: cfg}
	for _, a := range agents {
		m.Scheme = a.Scheme
		p := NewProber(front, fnic, a)
		m.Probers[p.Backend] = p
		if p.Backend >= len(m.byID) {
			m.byID = append(m.byID, make([]*Prober, p.Backend+1-len(m.byID))...)
		}
		m.byID[p.Backend] = p
		m.order = append(m.order, p.Backend)
	}
	if cfg.Hybrid != nil && m.Scheme.UsesRDMA() {
		h := cfg.Hybrid.WithDefaults(poll)
		m.cfg.Hybrid = &h
		m.hyb = make([]*hybridState, len(m.byID))
		for _, b := range m.order {
			m.hyb[b] = &hybridState{ctrl: PeriodController{Cfg: h.Period}}
		}
		m.Sink = NewPushSink(front, fnic, m.order)
		m.Sink.OnRecord = m.notePush
	}
	m.initPool()
	m.shardCycles = make([]uint64, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		// Contiguous balanced slices: shard s owns order[lo:hi].
		lo := s * len(m.order) / cfg.Shards
		hi := (s + 1) * len(m.order) / cfg.Shards
		ids := m.order[lo:hi]
		name := "rmon-frontend"
		if cfg.Shards > 1 {
			name = fmt.Sprintf("rmon-frontend-s%d", s)
		}
		s := s
		m.tasks = append(m.tasks, front.Spawn(name, func(tk *simos.Task) {
			// The shard's one batch in flight: its WR list, prober list,
			// completion slots and bound continuations are posted,
			// completed and reused sweep after sweep — the steady-state
			// sweep allocates nothing per read.
			sc := newSweepScratch(m, tk)
			var sweep func()
			var sweepStart sim.Time
			var step func(i int)
			step = func(i int) {
				if m.stopped {
					tk.Exit()
					return
				}
				if i >= len(ids) {
					m.CycleTime.Add(float64((front.Eng.Now() - sweepStart) / sim.Microsecond))
					m.shardDone(s)
					tk.Sleep(poll, sweep)
					return
				}
				if !m.dueNow(ids[i]) {
					// The adaptive period has not elapsed: this sweep
					// spends no work request on a quiet back-end.
					m.Decayed++
					step(i + 1)
					return
				}
				if m.cfg.Batch > 1 {
					// Extend a run of batch-eligible, due back-ends up to
					// the doorbell limit. Under a pool the run also stops
					// at the first target without a ready connection —
					// that slot dials (or sheds) on the sequential path.
					j := i
					sc.leases = sc.leases[:0]
					for j < len(ids) && j-i < m.cfg.Batch &&
						m.prober(ids[j]).batchEligible() && m.dueNow(ids[j]) {
						if m.pool != nil {
							l, ok := m.tryLease(ids[j])
							if !ok {
								break
							}
							sc.leases = append(sc.leases, l)
						}
						j++
					}
					if j > i+1 {
						sc.probeBatch(ids[i:j], func() { step(j) })
						return
					}
					if len(sc.leases) == 1 {
						// A one-long run still holds its lease: probe it
						// fenced without paying for a doorbell batch.
						m.fencedProbe(tk, ids[i], sc.leases[0], func() { step(i + 1) })
						return
					}
				}
				id := ids[i]
				if m.pool != nil && m.prober(id).batchEligible() {
					m.pooledProbe(tk, id, func() { step(i + 1) })
					return
				}
				m.prober(id).ProbeOnce(tk, func(_ wire.LoadRecord, err error) {
					m.observeProbe(id, err)
					step(i + 1)
				})
			}
			sweep = func() {
				sweepStart = front.Eng.Now()
				if m.pool != nil {
					// Idle GC once per sweep: quiet targets' conns age
					// out, returning fds to the budget.
					m.pool.GC()
				}
				step(0)
			}
			sweep()
		}))
	}
	return m
}

// sweepScratch is the state of a shard task's one doorbell batch in
// flight: the prober and WR lists built per batch, the completion slots
// the NIC fills in, the held leases, and the cursor i of the slot being
// applied — with the continuations that apply it bound once, so
// applying a slot allocates no closure.
//
// State instead of captured variables is safe because a shard posts one
// batch at a time and applies its slots strictly in order: probeBatch
// is only ever entered from the sweep's own continuation (then), which
// runs after the last slot; every path out of a slot — however many
// events it takes: a decode burst, a socket fallback, a fenced replay —
// ends in advance exactly once; and nothing else writes these fields.
// One instance per shard, reused for the shard's lifetime.
type sweepScratch struct {
	m  *Monitor
	tk *simos.Task

	probers []*Prober
	reqs    []simnet.ReadReq
	results []simnet.ReadResult // lent to the NIC at post, the completions from completed on
	leases  []connpool.Lease[int, *simnet.QP]

	start sim.Time // when the batch was posted
	then  func()   // the sweep's continuation past the batch
	i     int      // the slot being applied

	completedFn func([]simnet.ReadResult)    // sc.completed
	decodeFn    func()                       // sc.decode
	nextFn      func(wire.LoadRecord, error) // sc.next
	advanceFn   func()                       // sc.advance
}

func newSweepScratch(m *Monitor, tk *simos.Task) *sweepScratch {
	sc := &sweepScratch{m: m, tk: tk}
	sc.completedFn, sc.decodeFn, sc.nextFn, sc.advanceFn = sc.completed, sc.decode, sc.next, sc.advance
	return sc
}

// probeBatch posts one doorbell-batched multi-WR read covering ids
// (all batch-eligible when posted) and applies each completion through
// the same per-backend outcome logic a standalone probe uses. Under a
// pool, sc.leases[i] is the held lease for ids[i]: every completion is
// epoch-fenced before its record may be served — a slot whose conn
// was recycled in flight is rejected and replayed on a fresh conn,
// never silently served stale. Each read lands in its prober's own
// DMA buffer and the batch bookkeeping lives in sc, so the hot path
// posts no fresh memory.
func (sc *sweepScratch) probeBatch(ids []int, then func()) {
	m := sc.m
	sc.start, sc.then = sc.tk.Node().Eng.Now(), then
	if cap(sc.probers) < len(ids) {
		sc.probers = make([]*Prober, len(ids))
		sc.reqs = make([]simnet.ReadReq, len(ids))
	}
	sc.probers = sc.probers[:len(ids)]
	sc.reqs = sc.reqs[:len(ids)]
	for i, id := range ids {
		p := m.prober(id)
		sc.probers[i] = p
		n := p.readLen()
		sc.reqs[i] = simnet.ReadReq{Target: p.Backend, Key: p.agent.RKey(), Length: n, Buf: p.readInto(n)}
	}
	m.fnic.RDMAReadBatchInto(sc.tk, sc.reqs, sc.results, sc.completedFn)
}

// completed receives the batch's completions and starts applying them.
func (sc *sweepScratch) completed(results []simnet.ReadResult) {
	sc.results = results
	sc.i = 0
	sc.apply()
}

// apply resolves slot i — fence, transport error, or the decode burst —
// or, past the last slot, hands control back to the sweep.
func (sc *sweepScratch) apply() {
	m, i := sc.m, sc.i
	if i >= len(sc.probers) {
		then := sc.then
		sc.then = nil
		then()
		return
	}
	p, res := sc.probers[i], &sc.results[i]
	if m.pool != nil {
		l := sc.leases[i]
		if served := m.pool.Fence(l) && l.Conn.Valid(); !served {
			m.FenceRejects++
			m.pool.Invalidate(l)
			if res.Err == nil {
				// Intact data over a recycled conn: replay the
				// slot on a fresh connection.
				m.pooledProbeN(sc.tk, p.Backend, 1, sc.advanceFn)
				return
			}
		} else {
			m.pool.Release(l, res.Err)
		}
	}
	if res.Err != nil {
		if res.Err == simnet.ErrTimeout {
			p.Timeouts++
		}
		p.rdmaOutcome(sc.tk, sc.start, wire.LoadRecord{}, res.Err, sc.nextFn)
		return
	}
	sc.tk.Compute(p.decode, sc.decodeFn)
}

// decode runs when slot i's decode burst completes.
func (sc *sweepScratch) decode() {
	m, tk, p := sc.m, sc.tk, sc.probers[sc.i]
	rec, derr := p.decodeRead(sc.results[sc.i].Data)
	if derr == wire.ErrTorn {
		// The batch slot caught the ring writer mid-update:
		// re-read this one back-end on the sequential path
		// (which owns the bounded retry loop) while the rest
		// of the batch proceeds.
		p.TornRetries++
		if m.pool != nil {
			m.pooledProbeN(tk, p.Backend, 1, sc.advanceFn)
		} else {
			start, next := sc.start, sc.nextFn
			p.probeRDMA(tk, func(rec wire.LoadRecord, err error) {
				p.rdmaOutcome(tk, start, rec, err, next)
			})
		}
		return
	}
	p.rdmaOutcome(tk, sc.start, rec, derr, sc.nextFn)
}

// next is slot i's outcome, applied: feed the period controller and
// move on.
func (sc *sweepScratch) next(_ wire.LoadRecord, err error) {
	sc.m.observeProbe(sc.probers[sc.i].Backend, err)
	sc.advance()
}

func (sc *sweepScratch) advance() {
	sc.i++
	sc.apply()
}

// shardDone records one completed sweep of shard s and refreshes
// Cycles as the minimum across shards.
func (m *Monitor) shardDone(s int) {
	m.shardCycles[s]++
	min := m.shardCycles[0]
	for _, c := range m.shardCycles[1:] {
		if c < min {
			min = c
		}
	}
	m.Cycles = min
}

// Backends returns the monitored back-end IDs in start order.
func (m *Monitor) Backends() []int { return m.order }

// prober returns a back-end's prober, nil if unknown.
func (m *Monitor) prober(backend int) *Prober {
	if uint(backend) >= uint(len(m.byID)) {
		return nil
	}
	return m.byID[backend]
}

// hybrid returns a back-end's adaptive-poll state, nil if it has none.
func (m *Monitor) hybrid(backend int) *hybridState {
	if uint(backend) >= uint(len(m.hyb)) {
		return nil
	}
	return m.hyb[backend]
}

// dueNow reports whether a back-end's adaptive poll period has elapsed
// (always true without the hybrid engine).
func (m *Monitor) dueNow(backend int) bool {
	st := m.hybrid(backend)
	if st == nil {
		return true
	}
	return m.front.Eng.Now() >= st.due
}

// leaseHeld reports the monitor's current primaryship belief for the
// period controller.
func (m *Monitor) leaseHeld() bool { return m.LeaseValid == nil || m.LeaseValid() }

// observeProbe feeds one completed probe into the back-end's period
// controller: a failure or a moved load index counts as change and
// snaps the period to the fast sweep; a quiet, Healthy, leased probe
// lets it decay. With a history ring the change test uses the ring's
// own change-rate — the un-smoothed |dIndex/dt| over the window the
// read fetched, scaled to one fast sweep — instead of comparing two
// point samples, so a back-end that oscillated between two probes can
// no longer masquerade as quiet.
func (m *Monitor) observeProbe(backend int, err error) {
	st := m.hybrid(backend)
	if st == nil {
		return
	}
	p := m.prober(backend)
	changed := err != nil || !st.has
	if !changed {
		if p.agent.RingK() > 0 {
			perSweep := p.Trend.LastRate() *
				(float64(m.cfg.Hybrid.Period.Min) / float64(sim.Second))
			changed = perSweep >= m.cfg.Hybrid.Threshold
		} else {
			changed = LoadDelta(p.last, st.obs) >= m.cfg.Hybrid.Threshold
		}
	}
	if err == nil && p.has {
		st.obs = p.last
		st.has = true
	}
	st.due = m.front.Eng.Now() + st.ctrl.Observe(changed, p.Health.State(), m.leaseHeld())
}

// notePush applies one valid pushed delta record: it refreshes the
// prober's cache (a push IS a fresh record) and feeds the period
// controller. A push carrying a real index movement snaps the poll
// period back to the fast sweep — the back-end is volatile; a
// heartbeat push (quiet, just proving freshness) lets the period keep
// decaying. Health stays probe-driven: a push proves the push path
// works, not that probes would succeed. Out-of-order arrivals (older
// kernel timestamp or replayed push sequence) are dropped so the cache
// never moves backwards in time.
func (m *Monitor) notePush(backend int, rec wire.PushRecord, at sim.Time) {
	st := m.hybrid(backend)
	p := m.prober(backend)
	if st == nil || p == nil || m.stopped {
		return
	}
	if st.pushSeq != 0 && rec.PushSeq <= st.pushSeq {
		m.StalePushes++
		return
	}
	st.pushSeq = rec.PushSeq
	if p.has && rec.Load.KTimeNS < p.last.KTimeNS {
		m.StalePushes++
		return
	}
	changed := !st.has || LoadDelta(rec.Load, st.obs) >= m.cfg.Hybrid.Threshold
	p.last = rec.Load
	p.lastAt = at
	p.has = true
	p.Trend.ObserveRecord(rec.Load)
	p.LastTransport = TransportPush
	if p.OnRecord != nil {
		p.OnRecord(rec.Load, at)
	}
	st.obs = rec.Load
	st.has = true
	st.due = at + st.ctrl.Observe(changed, p.Health.State(), m.leaseHeld())
}

// ProbePeriod returns a back-end's current adaptive poll period (0
// without the hybrid engine).
func (m *Monitor) ProbePeriod(backend int) sim.Time {
	st := m.hybrid(backend)
	if st == nil {
		return 0
	}
	return st.ctrl.Period()
}

// SetProbeTimeout bounds every back-end's probe by d (0 disables).
func (m *Monitor) SetProbeTimeout(d sim.Time) {
	for _, p := range m.Probers {
		p.Timeout = d
	}
}

// ArmFailover equips every prober with an independent transport
// breaker (RDMA schemes only; a no-op for socket schemes, which have
// no faster path to fall back from). The monitored agents must serve
// the standby socket port (AgentConfig.StandbySocket) and probes must
// carry a timeout.
func (m *Monitor) ArmFailover(cfg FailoverConfig) {
	if !m.Scheme.UsesRDMA() {
		return
	}
	for _, p := range m.Probers {
		p.Failover = &Failover{Cfg: cfg}
	}
}

// Failover returns a back-end's transport breaker (nil if the monitor
// is unarmed or the back-end unknown).
func (m *Monitor) Failover(backend int) *Failover {
	p := m.prober(backend)
	if p == nil {
		return nil
	}
	return p.Failover
}

// Health returns the probe-driven health state of a back-end; unknown
// back-ends report Quarantined (never dispatch blind).
func (m *Monitor) Health(backend int) Health {
	p := m.prober(backend)
	if p == nil {
		return Quarantined
	}
	return p.Health.State()
}

// ReplaceAgent points the prober for a back-end at a freshly started
// agent (after a crash/restart the old agent task and its registered
// memory are gone). The health machine is deliberately NOT reset: the
// restarted back-end earns its way back through probation by answering
// probes, exactly like one that recovered on its own.
func (m *Monitor) ReplaceAgent(backend int, a *Agent) {
	p := m.prober(backend)
	if p == nil || a == nil {
		return
	}
	p.agent = a
	p.Scheme = a.Scheme
	// A fresh agent's ring restarts at epoch 0 — indistinguishable from
	// the old one's first epoch — so drop trend state explicitly rather
	// than let a slope span the restart.
	p.Trend.Reset()
	if st := m.hybrid(backend); st != nil {
		// A restarted back-end's pusher restarts its push sequence; clear
		// the replay guard so its first post-restart delta is accepted.
		st.pushSeq = 0
	}
}

// Slope returns a back-end's observed load-index slope in index units
// per second (see TrendTracker), false while unknown or unprimed. Ring
// probes prime it from the history window; point probes prime it from
// consecutive samples.
func (m *Monitor) Slope(backend int) (float64, bool) {
	p := m.prober(backend)
	if p == nil {
		return 0, false
	}
	return p.Trend.Slope()
}

// Latest returns the newest record for a back-end.
func (m *Monitor) Latest(backend int) (wire.LoadRecord, sim.Time, bool) {
	p := m.prober(backend)
	if p == nil {
		return wire.LoadRecord{}, 0, false
	}
	return p.Latest()
}

// Stop ends the monitoring process. Idempotent. The connection pool
// is drained last: every pooled QP is closed and its fd returned, so
// a stopped monitor leaks nothing (asserted by the scale experiment's
// teardown check).
func (m *Monitor) Stop() {
	m.stopped = true
	for _, t := range m.tasks {
		t.Exit()
	}
	for _, p := range m.Probers {
		p.Stop()
	}
	if m.Sink != nil {
		m.Sink.Close()
	}
	if m.pool != nil {
		m.pool.Close()
	}
}

// TruthSampler emulates the paper's kernel module that reports the
// actual load at fine granularity (§5.1.3): it snapshots the kernel
// statistics directly on the node, with no simulated cost, so
// experiments can compare scheme reports against ground truth.
type TruthSampler struct {
	ticker *sim.Ticker
}

// StartTruth samples node's kernel stats every period into fn.
func StartTruth(node *simos.Node, period sim.Time, fn func(simos.Snapshot)) *TruthSampler {
	return &TruthSampler{
		ticker: node.Eng.NewTicker(period, func() { fn(node.K.Snapshot()) }),
	}
}

// Stop ends sampling.
func (ts *TruthSampler) Stop() { ts.ticker.Stop() }
