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
// the most recent one for the dispatcher. Its ProbeState makes every
// decision about an outcome; the Prober adds the simulated transport
// (the front-end node, its NIC and the agent) and the sim-only hooks.
type Prober struct {
	Backend int

	front *simos.Node
	fnic  *simnet.NIC
	agent *Agent

	replyPort string
	decode    sim.Time

	// At 8192 back-ends the layout of this struct is the sweep's working
	// set, and a Prober must stay within the 384-byte size class: cold,
	// mode-specific state (the ring view, the latency sample) stays
	// behind a pointer, and reads land in the shard's buffers.
	ProbeState

	// pushSeq is the highest push sequence the cache accepted under the
	// hybrid engine.
	pushSeq uint32

	// Latency, if set, gets every probe's round-trip latency in
	// microseconds, completed or failed. nil, the default, records
	// nothing, so the prober's memory does not grow with run length.
	Latency *metrics.Sample

	// Timeout bounds one probe; 0 disables the deadline (the seed
	// behaviour, preserved so fault-free experiments are unchanged).
	// On the socket path a probe whose reply misses the deadline
	// finishes with ErrProbeTimeout instead of blocking the cycle
	// forever behind a dead back-end. An armed Failover requires a
	// non-zero Timeout and an agent serving the standby socket port
	// (AgentConfig.StandbySocket), or a fallback probe of a dead
	// back-end would block the cycle forever.
	Timeout sim.Time
	// OnRecord, if set, observes every record as it arrives.
	OnRecord func(rec wire.LoadRecord, at sim.Time)
}

// NewProber creates the front-end prober state for agent. It has no
// polling task of its own: a Monitor's shard sweep probes it.
func NewProber(front *simos.Node, fnic *simnet.NIC, agent *Agent) *Prober {
	return &Prober{
		ProbeState: ProbeState{Scheme: agent.Scheme},
		Backend:    agent.node.ID,
		front:      front,
		fnic:       fnic,
		agent:      agent,
		replyPort:  fmt.Sprintf("%s-reply-%d", agent.Port(), agent.node.ID),
		decode:     2 * sim.Microsecond,
	}
}

// finishProbe applies one completed probe's outcome (ProbeState.Apply),
// then the sim-only hooks, and hands the cached record to the caller.
// start is when the probe — or the doorbell batch carrying it — was
// posted.
func (p *Prober) finishProbe(start sim.Time, rec *wire.LoadRecord, err error, tr Transport, then func(*wire.LoadRecord, error)) {
	now := p.front.Eng.Now()
	cached := p.Apply(now, rec, err, tr)
	if cached != nil && p.OnRecord != nil {
		p.OnRecord(*cached, now)
	}
	if p.Latency != nil {
		p.Latency.Add(float64((now - start) / sim.Microsecond))
	}
	then(cached, err)
}

// rdmaOutcome resolves the result of an untripped RDMA probe —
// standalone or one slot of a doorbell batch — through the breaker
// step, including the same-cycle socket fallback.
func (p *Prober) rdmaOutcome(tk *simos.Task, start sim.Time, rec *wire.LoadRecord, err error, then func(*wire.LoadRecord, error)) {
	if !p.FallBack(err) {
		p.finishProbe(start, rec, err, TransportRDMA, then)
		return
	}
	p.probeSocket(tk, func(rec wire.LoadRecord, serr error) {
		if serr == nil {
			p.finishProbe(start, &rec, nil, TransportSocket, then)
		} else {
			p.finishProbe(start, nil, err, TransportRDMA, then)
		}
	})
}

// batchEligible reports whether this back-end's next probe can ride a
// doorbell-batched multi-WR post: only one-sided RDMA probes batch,
// and a tripped breaker routes the probe through the standby socket
// path (which also owns re-arm scheduling) instead.
func (p *Prober) batchEligible() bool {
	return p.Scheme.UsesRDMA() && (p.Failover == nil || !p.Failover.Tripped())
}

// readLen returns the one-sided read size for this back-end: the whole
// history ring when the agent exports one, a single record otherwise.
func (p *Prober) readLen() int {
	if k := p.agent.RingK(); k > 0 {
		return wire.RingSize(k)
	}
	return wire.RecordSize
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
// probes keep the cycle tight regardless of back-end load. It is the
// only simulated poller: a single-back-end run is a one-agent Monitor.
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
	// dispatch path asks Updates/Health/Slope once per candidate per
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

	// PoolShedHot counts probe slots of hot back-ends deferred because
	// a pool budget (conns, fds, dial rate, breaker) was exhausted. It
	// should stay ~0: the degradation ladder sheds quiet targets first.
	// Every shed, hot or quiet, is in the pool's Stats().Sheds.
	PoolShedHot uint64
	// FenceRejects counts one-sided completions rejected by the pool's
	// epoch fence (conn recycled while the read was in flight) and
	// replayed instead of served — each one is a stale read that was
	// caught, never one that was served.
	FenceRejects uint64

	pool *connpool.Pool[int, *simnet.QP]

	// hyb is indexed by back-end id like byID; a nil entry (or a nil
	// slice, without the hybrid engine) means no adaptive-poll state.
	hyb []*AdaptivePoll
	// due is the hybrid engine's sweep test, a dense table beside hyb:
	// due[b] is the instant back-end b's next probe is due (nil without
	// the hybrid engine). Every shard scans it every sweep, for every one
	// of its back-ends, so it is read from one array rather than through
	// a pointer per back-end.
	due []sim.Time

	shardCycles []uint64
	shards      []*sweepScratch
	stopped     bool
}

// MonitorConfig shapes the probe engine. The zero value reproduces
// the paper's monitor exactly: one task, strictly sequential probes.
type MonitorConfig struct {
	// Shards is the number of monitoring tasks; back-ends are split
	// across them in contiguous slices (default 1).
	Shards int
	// Batch is the maximum number of one-sided reads posted per
	// doorbell batch (default 1 = one read at a time). Only
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
		m.hyb = make([]*AdaptivePoll, len(m.byID))
		m.due = make([]sim.Time, len(m.byID))
		for _, b := range m.order {
			m.hyb[b] = &AdaptivePoll{Ctrl: PeriodController{Cfg: h.Period}}
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
		sc := newSweepScratch(m, s, ids, poll)
		m.shards = append(m.shards, sc)
		front.Spawn(name, func(tk *simos.Task) {
			sc.tk = tk
			sc.sweep()
		})
	}
	return m
}

// sweepScratch is a shard task's sweep and its one read in flight. A
// shard probes one back-end, or posts one doorbell batch, at a time, so
// one instance per shard, its stages bound once, carries every probe
// the shard makes; only a breaker re-arm read builds a closure.
//
// The cursor is the shard's back-ends, pos (where the sweep resumes
// once the probe or batch in flight is done) and the slots of that
// probe or batch: their probers, WRs, completions and leases, with i the
// slot being resolved. A solo probe is one slot.
//
// Every one-sided probe read — a solo read, a batch slot, a fenced
// replay, a torn re-read, a breaker re-arm read — runs one state
// machine:
//
//	[acquire → dial →] post → read → decode → then
//
// acquire (pooled reads only, pool.go) leases the back-end's conn,
// dialing or shedding as the pool answers. read is the completion: the
// epoch fence when leased, then the transport error, then the decode
// burst. decode runs ProbeState.DecodeRead and re-reads a torn ring
// snapshot while RetryTorn allows. A batch slot enters at read, with
// its prober, lease and the batch's post instant loaded. A probe read ends in
// outcome — rdmaOutcome, then next's observeProbe — and every way out
// of a slot, however many events it takes, ends in advance exactly
// once (a shed, or a dial the closing pool refused, skips the outcome).
//
// State instead of captured variables is safe because step is only
// ever re-entered through resume, which runs once the probe or the
// batch's last slot is done; slots are resolved strictly in order; and
// nothing else writes these fields.
type sweepScratch struct {
	m  *Monitor
	tk *simos.Task

	shard      int
	ids        []int // the shard's back-ends
	poll       sim.Time
	sweepStart sim.Time
	pos        int // where the sweep resumes once the probe or batch in flight is done

	probers []*Prober
	reqs    []simnet.ReadReq
	results []simnet.ReadResult // lent to the NIC at post, the completions from completed on
	leases  []connpool.Lease[int, *simnet.QP]
	// bufs[i] is where slot i's reads land (a solo read is slot 0): its
	// first read, a fenced replay and a torn re-read alike. A shard holds
	// one buffer per doorbell slot, sized on demand, not one per back-end.
	bufs   [][]byte
	posted sim.Time // when the batch was posted
	i      int      // the slot being resolved

	// The read in flight. start is when its probe, or its batch, was
	// posted; a fenced replay and a dial reset it, a torn re-read does
	// not.
	p       *Prober
	leased  bool // through the pool: acquired before post, fenced at completion
	lease   connpool.Lease[int, *simnet.QP]
	hot     bool // the back-end's class at the last acquire
	attempt int  // fenced replays in this slot so far
	torn    int  // re-reads of a torn snapshot so far
	start   sim.Time
	data    []byte
	// rec is the decode target, shared by the shard's probers: the
	// outcome path reads it before the slot ends.
	rec  wire.LoadRecord
	then func(*wire.LoadRecord, error) // sc.outcome, or a re-arm's accounting

	sweepFn     func()                        // sc.sweep
	completedFn func([]simnet.ReadResult)     // sc.completed
	dialedFn    func(*simnet.QP, error)       // sc.dialed
	readFn      func([]byte, error)           // sc.read
	decodeFn    func()                        // sc.decode
	socketFn    func(wire.LoadRecord, error)  // sc.socketDone
	outcomeFn   func(*wire.LoadRecord, error) // sc.outcome
	nextFn      func(*wire.LoadRecord, error) // sc.next
}

func newSweepScratch(m *Monitor, shard int, ids []int, poll sim.Time) *sweepScratch {
	sc := &sweepScratch{m: m, shard: shard, ids: ids, poll: poll}
	sc.sweepFn, sc.completedFn = sc.sweep, sc.completed
	sc.dialedFn, sc.readFn, sc.decodeFn = sc.dialed, sc.read, sc.decode
	sc.socketFn, sc.outcomeFn, sc.nextFn = sc.socketDone, sc.outcome, sc.next
	return sc
}

// sweep starts one sweep of the shard's back-ends.
func (sc *sweepScratch) sweep() {
	sc.sweepStart = sc.m.front.Eng.Now()
	if sc.m.pool != nil {
		// Idle GC once per sweep: quiet targets' conns age out,
		// returning fds to the budget.
		sc.m.pool.GC()
	}
	sc.step(0)
}

// step carries the sweep on from back-end i: past the back-ends whose
// adaptive period has not elapsed, it probes the next due one — in a
// doorbell batch with the due, batch-eligible ones after it, or on its
// own — and sets pos past what it probed for resume. Past the last
// back-end the sweep is done and the shard sleeps a period.
func (sc *sweepScratch) step(i int) {
	m, tk, ids := sc.m, sc.tk, sc.ids
	if m.stopped {
		tk.Exit()
		return
	}
	for i < len(ids) && !m.dueNow(ids[i]) {
		// The adaptive period has not elapsed: this sweep spends no
		// work request on a quiet back-end.
		m.Decayed++
		i++
	}
	if i >= len(ids) {
		m.CycleTime.Add(float64((m.front.Eng.Now() - sc.sweepStart) / sim.Microsecond))
		m.shardDone(sc.shard)
		tk.Sleep(sc.poll, sc.sweepFn)
		return
	}
	sc.leases = sc.leases[:0]
	if m.cfg.Batch > 1 {
		// Extend a run of batch-eligible, due back-ends up to the
		// doorbell limit. Under a pool the run also stops at the first
		// target without a ready connection, which dials (or sheds) on
		// its own.
		j := i
		for j < len(ids) && j-i < m.cfg.Batch &&
			m.prober(ids[j]).batchEligible() && m.dueNow(ids[j]) {
			if m.pool != nil {
				if !m.pool.Ready(ids[j]) {
					break
				}
				l, v, stale := m.acquire(ids[j], m.hotBackend(ids[j]))
				if v != connpool.Conn || stale {
					break
				}
				sc.leases = append(sc.leases, l)
			}
			j++
		}
		if j > i+1 {
			sc.pos = j
			sc.probeBatch(ids[i:j])
			return
		}
	}
	sc.pos = i + 1
	sc.probe(m.prober(ids[i]))
}

// resume carries the sweep on past the probe or batch just done.
func (sc *sweepScratch) resume() { sc.step(sc.pos) }

// probe starts a solo probe of p: the socket round trip, the tripped
// breaker's standby probe, or a one-sided read — under the lease a
// one-long planned run already holds, or from the top.
func (sc *sweepScratch) probe(p *Prober) {
	sc.probers = append(sc.probers[:0], p)
	sc.i = 0
	sc.load(p, sc.m.front.Eng.Now())
	switch {
	case !p.Scheme.UsesRDMA():
		p.probeSocket(sc.tk, sc.socketFn)
	case p.UseStandby():
		sc.probeTripped()
	case len(sc.leases) == 1:
		sc.lease = sc.leases[0]
		sc.post()
	default:
		sc.begin()
	}
}

// load makes p's read the one in flight, posted at start.
func (sc *sweepScratch) load(p *Prober, start sim.Time) {
	sc.p, sc.start, sc.attempt, sc.torn = p, start, 0, 0
	sc.leased = sc.m.pool != nil
	sc.then = sc.outcomeFn
}

// probeTripped carries a probe over the standby socket channel while
// the breaker is tripped, issuing the occasional background re-arm
// read of the RDMA path, which bypasses the pool.
func (sc *sweepScratch) probeTripped() {
	p := sc.p
	p.probeSocket(sc.tk, func(rec wire.LoadRecord, err error) {
		if !p.ReArmDue() {
			sc.socketDone(rec, err)
			return
		}
		sc.leased = false
		sc.then = func(_ *wire.LoadRecord, rerr error) {
			p.ReArmDone(rerr)
			sc.socketDone(rec, err)
		}
		sc.post()
	})
}

// socketDone is a socket probe's reply, applied.
func (sc *sweepScratch) socketDone(rec wire.LoadRecord, err error) {
	sc.p.finishProbe(sc.start, &rec, err, TransportSocket, sc.nextFn)
}

// begin (re)starts the read in flight: through the pool when leased.
func (sc *sweepScratch) begin() {
	if sc.leased {
		sc.acquire()
		return
	}
	sc.post()
}

// post issues the read into the slot's buffer.
func (sc *sweepScratch) post() {
	p := sc.p
	n := p.readLen()
	sc.m.fnic.RDMAReadInto(sc.tk, p.Backend, p.agent.RKey(), n, sc.buf(sc.i, n), sc.readFn)
}

// buf returns slot i's buffer sized for an n-byte read, growing it
// only when a back-end's region is larger than any the slot has read.
func (sc *sweepScratch) buf(i, n int) []byte {
	if i >= len(sc.bufs) {
		sc.bufs = append(sc.bufs, make([][]byte, i+1-len(sc.bufs))...)
	}
	if cap(sc.bufs[i]) < n {
		sc.bufs[i] = make([]byte, n)
	}
	return sc.bufs[i][:n]
}

// read is the read's completion. A leased read is epoch-fenced first: a
// completion whose conn was recycled in flight is never served — intact
// data is replayed on a fresh conn, and a failed op is a plain failure
// with no breaker charge in the pool (Invalidate recycles the conn).
// Then a transport error ends the read, and data goes through the
// decode burst.
func (sc *sweepScratch) read(data []byte, err error) {
	m, p := sc.m, sc.p
	if sc.leased {
		if l := sc.lease; m.pool.Fence(l) && l.Conn.Valid() {
			m.pool.Release(l, err)
		} else {
			m.FenceRejects++
			m.pool.Invalidate(l)
			if err == nil {
				sc.attempt, sc.start = sc.attempt+1, m.front.Eng.Now()
				sc.acquire()
				return
			}
		}
	}
	if err != nil {
		sc.then(nil, err)
		return
	}
	sc.data = data
	sc.tk.Compute(p.decode, sc.decodeFn)
}

// decode runs when the decode burst completes. A torn ring snapshot
// (the writer mid-update at the DMA instant) is simply re-read, the
// seqlock contract, as often as RetryTorn allows.
func (sc *sweepScratch) decode() {
	p, data := sc.p, sc.data
	sc.data = nil
	err := p.DecodeRead(&sc.rec, data, p.agent.RingK() > 0)
	if p.RetryTorn(err, sc.torn) {
		sc.torn++
		sc.begin()
		return
	}
	sc.then(&sc.rec, err)
}

// outcome resolves a probe read: breaker accounting and the same-cycle
// socket fallback, then next.
func (sc *sweepScratch) outcome(rec *wire.LoadRecord, err error) {
	sc.p.rdmaOutcome(sc.tk, sc.start, rec, err, sc.nextFn)
}

// next is a slot's outcome, applied: feed the period controller and
// move on.
func (sc *sweepScratch) next(_ *wire.LoadRecord, err error) {
	sc.m.observeProbe(sc.p.Backend, err)
	sc.advance()
}

func (sc *sweepScratch) advance() {
	sc.i++
	sc.apply()
}

// probeBatch posts one doorbell-batched multi-WR read covering ids
// (all batch-eligible when posted). Under a pool, sc.leases[i] is the
// held lease for ids[i]. Each read lands in its slot's buffer and the
// batch bookkeeping lives in sc, so the hot path posts no fresh memory.
func (sc *sweepScratch) probeBatch(ids []int) {
	m := sc.m
	sc.posted = sc.tk.Node().Eng.Now()
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
		sc.reqs[i] = simnet.ReadReq{Target: p.Backend, Key: p.agent.RKey(), Length: n, Buf: sc.buf(i, n)}
	}
	m.fnic.RDMAReadBatchInto(sc.tk, sc.reqs, sc.results, sc.completedFn)
}

// completed receives the batch's completions and starts resolving them.
func (sc *sweepScratch) completed(results []simnet.ReadResult) {
	sc.results = results
	sc.i = 0
	sc.apply()
}

// apply enters slot i's completion into the read — the same completion
// stage a solo read reaches — or, past the last slot, hands control back
// to the sweep.
func (sc *sweepScratch) apply() {
	if sc.i >= len(sc.probers) {
		sc.resume()
		return
	}
	sc.load(sc.probers[sc.i], sc.posted)
	if sc.leased {
		sc.lease = sc.leases[sc.i]
	}
	res := &sc.results[sc.i]
	sc.read(res.Data, res.Err)
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

// hybrid returns a back-end's adaptive-poll decision, nil if it has none.
func (m *Monitor) hybrid(backend int) *AdaptivePoll {
	if uint(backend) >= uint(len(m.hyb)) {
		return nil
	}
	return m.hyb[backend]
}

// dueNow reports whether a back-end's adaptive poll period has elapsed
// (always true without the hybrid engine).
func (m *Monitor) dueNow(backend int) bool {
	return uint(backend) >= uint(len(m.due)) || m.front.Eng.Now() >= m.due[backend]
}

// leaseHeld reports the monitor's current primaryship belief for the
// period controller.
func (m *Monitor) leaseHeld() bool { return m.LeaseValid == nil || m.LeaseValid() }

// observeProbe feeds one completed probe into the back-end's adaptive
// poll (ProbeState.ObservePoll) and sets when it is next due.
func (m *Monitor) observeProbe(backend int, err error) {
	st := m.hybrid(backend)
	if st == nil {
		return
	}
	p := m.prober(backend)
	m.due[backend] = m.front.Eng.Now() + p.ObservePoll(st, err, p.agent.RingK() > 0, DefaultChangeThreshold, m.leaseHeld())
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
	if p.pushSeq != 0 && rec.PushSeq <= p.pushSeq {
		m.StalePushes++
		return
	}
	p.pushSeq = rec.PushSeq
	if p.updates > 0 && rec.Load.KTimeNS < p.last.KTimeNS {
		m.StalePushes++
		return
	}
	p.store(&rec.Load, at)
	p.LastTransport = TransportPush
	if p.OnRecord != nil {
		p.OnRecord(rec.Load, at)
	}
	m.due[backend] = at + st.Observe(&p.last, DefaultChangeThreshold, p.Health.State(), m.leaseHeld())
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
func (m *Monitor) ArmFailover() {
	if !m.Scheme.UsesRDMA() {
		return
	}
	for _, p := range m.Probers {
		p.Failover = &Failover{}
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
	// A restarted back-end's pusher restarts its push sequence; clear the
	// replay guard so its first post-restart delta is accepted.
	p.pushSeq = 0
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

// Latest returns the newest record for a back-end, by pointer into its
// prober's cache (see Prober.Latest).
func (m *Monitor) Latest(backend int) (*wire.LoadRecord, sim.Time, bool) {
	p := m.prober(backend)
	if p == nil {
		return nil, 0, false
	}
	return p.Latest()
}

// Updates counts the records a back-end's cache has taken, probed or
// pushed: Latest's answer changes only when Updates moves.
func (m *Monitor) Updates(backend int) uint64 {
	if p := m.prober(backend); p != nil {
		return p.updates
	}
	return 0
}

// Stop ends the monitoring process. Idempotent. The connection pool
// is drained last: every pooled QP is closed and its fd returned, so
// a stopped monitor leaks nothing (asserted by the scale experiment's
// teardown check).
func (m *Monitor) Stop() {
	m.stopped = true
	for _, sc := range m.shards {
		sc.tk.Exit()
	}
	if m.Sink != nil {
		m.Sink.Close()
	}
	if m.pool != nil {
		m.pool.Close()
	}
}
