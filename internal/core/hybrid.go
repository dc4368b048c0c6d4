package core

import (
	"math"
	"slices"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// The hybrid monitoring scheme inverts the pull direction for quiet
// back-ends. Two cooperating halves:
//
//   - each back-end runs a DeltaPusher: it samples the kernel every
//     Check and RDMA-Writes a timestamped PushRecord into its slot of a
//     front-end-hosted aggregation region — but only when the weighted
//     load index moved by at least DefaultChangeThreshold (or Heartbeat
//     elapsed).
//     Quiet back-ends post nothing.
//   - the front-end monitor runs a PeriodController per back-end: a
//     back-end whose observed load stopped changing has its poll period
//     decay geometrically toward Max, while any sign of volatility —
//     a delta push, a changed probe, a probe failure, a non-Healthy
//     state, a lost lease — snaps it back to the fast sweep at Min.
//
// The contract the hybrid experiment enforces: the staleness bound of
// the all-pull sweep is preserved (changes always reach the front-end
// within a few T, via push or snapped-back pull) while quiet back-ends
// cost ~1/periodGrow^k of the probe work requests.

// LoadDelta measures how far two load records are apart on the
// dispatcher's weighted index — the "did anything the dispatcher cares
// about change?" metric both the pusher threshold and the period
// controller use.
func LoadDelta(a, b *wire.LoadRecord) float64 {
	w := DefaultWeights()
	return math.Abs(w.IndexOf(a) - w.IndexOf(b))
}

// PeriodConfig bounds the adaptive per-backend poll period.
type PeriodConfig struct {
	// Min is the fast-sweep period volatile back-ends are probed at
	// (defaults to the monitor's poll T).
	Min sim.Time
	// Max is the ceiling a quiet back-end's period decays toward
	// (default 16×Min when unset). A set Max is kept even below Min,
	// where it pins the period at Min: callers that take it from a
	// user reject that range themselves.
	Max sim.Time
}

// periodGrow is the period's geometric decay factor per quiet
// observation.
const periodGrow = 2

// WithDefaults fills unset fields, anchoring Min to poll.
func (c PeriodConfig) WithDefaults(poll sim.Time) PeriodConfig {
	if c.Min <= 0 {
		c.Min = poll
	}
	if c.Min <= 0 {
		c.Min = DefaultInterval
	}
	if c.Max <= 0 {
		c.Max = 16 * c.Min
	}
	return c
}

// PeriodController adapts one back-end's poll period to its observed
// change rate. It is deliberately pure state-machine — no clocks, no
// tasks — so its invariants (bounded, monotone in change rate, snaps
// on trouble) are directly property-testable.
type PeriodController struct {
	Cfg    PeriodConfig
	period sim.Time
}

// Period returns the current poll period (Min before any observation).
func (pc *PeriodController) Period() sim.Time {
	if pc.period <= 0 {
		return pc.Cfg.Min
	}
	return pc.period
}

// Observe feeds one observation cycle into the controller and returns
// the period to use until the next one. Any trouble signal — the load
// changed, the back-end is not plain Healthy, the monitor's lease is
// not held — snaps the period to Min within this one cycle; only a
// quiet, Healthy, leased observation lets the period grow, by periodGrow up
// to Max. The result is always within [Min, Max].
func (pc *PeriodController) Observe(changed bool, h Health, leaseHeld bool) sim.Time {
	cfg := pc.Cfg
	if changed || !leaseHeld || h != Healthy {
		pc.period = cfg.Min
		return pc.period
	}
	p := pc.period
	if p <= 0 {
		p = cfg.Min
	}
	p = sim.Time(float64(p) * periodGrow)
	if p > cfg.Max {
		p = cfg.Max
	}
	if p < cfg.Min {
		p = cfg.Min
	}
	pc.period = p
	return pc.period
}

// DefaultChangeThreshold is the weighted-index movement that counts as
// a change: the pushers' "worth a write" test and the adaptive poll's
// "still volatile" test. The simulated hybrid scheme always uses it;
// livemon's pusher and monitor use it when their threshold is unset.
const DefaultChangeThreshold = 0.05

// AdaptivePoll is one back-end's adaptive-poll decision: its period
// controller, the weighted index of the last record it observed and the
// change test between them. The simulated monitor and the live monitor (which rmmon probe
// runs on) both decide through it. Like PeriodController it is
// clock-free: each call returns the period until the next probe and the
// caller schedules.
type AdaptivePoll struct {
	Ctrl   PeriodController
	obsIdx float64 // DefaultWeights' index of the last observed record
	has    bool
}

// Observe folds one probe outcome or pushed record into the decision
// and returns the period until the next probe. rec is the observed
// record, nil for a failed probe. A failure, a first observation, or a
// weighted index at least threshold away from the last observed one
// counts as change; so does any non-Healthy state or a lost lease (see
// PeriodController.Observe).
func (a *AdaptivePoll) Observe(rec *wire.LoadRecord, threshold float64, h Health, leaseHeld bool) sim.Time {
	last, had := a.obsIdx, a.has
	a.keep(rec)
	// LoadDelta(rec, last observed), each side scored once.
	return a.Ctrl.Observe(rec == nil || !had || math.Abs(a.obsIdx-last) >= threshold, h, leaseHeld)
}

// ObserveRate is Observe with the caller's rate verdict in place of the
// point delta: rate is the load index's movement per fast sweep over
// the whole history window a ring read fetched, so a back-end that
// oscillated between two probes still counts as changed.
func (a *AdaptivePoll) ObserveRate(rec *wire.LoadRecord, rate, threshold float64, h Health, leaseHeld bool) sim.Time {
	changed := rec == nil || !a.has || rate >= threshold
	a.keep(rec)
	return a.Ctrl.Observe(changed, h, leaseHeld)
}

// keep scores rec, if any, as the last observation.
func (a *AdaptivePoll) keep(rec *wire.LoadRecord) {
	if rec != nil {
		w := DefaultWeights()
		a.obsIdx, a.has = w.IndexOf(rec), true
	}
}

// HybridConfig shapes the hybrid push/pull scheme. Its change test,
// for both the pusher and the controller, is DefaultChangeThreshold.
type HybridConfig struct {
	// Period bounds the monitor's adaptive poll period.
	Period PeriodConfig
	// Heartbeat forces a push after this much quiet, so a decayed
	// back-end's record can still be proven fresh (default Period.Max).
	Heartbeat sim.Time
	// Check is the pusher's sampling period (default Period.Min).
	Check sim.Time
}

// WithDefaults fills unset fields, anchoring periods to poll.
func (c HybridConfig) WithDefaults(poll sim.Time) HybridConfig {
	c.Period = c.Period.WithDefaults(poll)
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.Period.Max
	}
	if c.Check <= 0 {
		c.Check = c.Period.Min
	}
	return c
}

// PushGate is a delta pusher's change test: it decides, sample by
// sample, whether a record is worth a one-sided write. The simulated
// DeltaPusher and the live livemon.Pusher both push through it. Like
// AdaptivePoll it holds no clock: the caller passes the instant it
// scored the sample at, in its own time base, and that instant becomes
// the record's PushedNS.
type PushGate struct {
	threshold float64
	heartbeat sim.Time

	// The change test is LoadDelta's arithmetic with one side cached:
	// lastIdx is the index of the last pushed record and lastAt the
	// instant it was scored, so a check scores only its own sample.
	// sampleIdx and scoredAt hold the sample in flight between Check and
	// Pushed.
	seq       uint32
	primed    bool
	lastIdx   float64
	lastAt    sim.Time
	sampleIdx float64
	scoredAt  sim.Time

	// Pushes counts delta writes posted successfully; Skips counts
	// samples below threshold; Errors counts failed writes.
	Pushes uint64
	Skips  uint64
	Errors uint64
}

// NewPushGate returns a gate that pushes a sample when its weighted
// index moved by at least threshold since the last push, or when
// heartbeat has passed since the last push was scored.
func NewPushGate(threshold float64, heartbeat sim.Time) PushGate {
	return PushGate{threshold: threshold, heartbeat: heartbeat}
}

// Check scores pr.Load, a sample the pusher took of its own machine at
// now, and reports whether to push it. The pusher is always running
// when it samples, so counting itself in the run queue would bias every
// pushed record high by one task relative to the one-sided probe path
// (which reads the kernel with no agent awake): Check subtracts it. A
// quiet sample counts a skip; a pushed one is stamped with the next
// sequence number (Seq and PushSeq) and PushedNS = now, and the caller
// writes it and reports the write's outcome to Pushed.
func (g *PushGate) Check(pr *wire.PushRecord, now sim.Time) bool {
	rec := &pr.Load
	if rec.NrRunning > 0 {
		rec.NrRunning--
	}
	w := DefaultWeights()
	idx := w.IndexOf(rec)
	if g.primed && math.Abs(idx-g.lastIdx) < g.threshold && now-g.lastAt < g.heartbeat {
		g.Skips++
		return false
	}
	g.seq++
	rec.Seq = g.seq
	pr.PushSeq, pr.PushedNS = g.seq, int64(now)
	g.sampleIdx, g.scoredAt = idx, now
	return true
}

// Pushed records the outcome of the write Check asked for. A landed
// push becomes the baseline the next samples are scored against, and
// the heartbeat runs from the instant it was scored.
func (g *PushGate) Pushed(err error) {
	if err != nil {
		g.Errors++
		return
	}
	g.Pushes++
	g.lastIdx, g.lastAt, g.primed = g.sampleIdx, g.scoredAt, true
}

// DeltaPusher is the back-end half of the hybrid scheme: a task that
// samples the kernel every Check and RDMA-Writes a PushRecord into the
// front-end's aggregation slot when its PushGate says the load moved
// (or Heartbeat elapsed). Unlike the multicast PushAgent it is
// change-triggered and one-sided: a quiet back-end costs zero work
// requests.
type DeltaPusher struct {
	period sim.Time // the sampling period, HybridConfig.Check
	node   *simos.Node
	nic    *simnet.NIC
	front  int
	// slotKey resolves the aggregation slot's current rkey per push, so
	// the pusher survives the front-end invalidating and re-pinning the
	// region (it simply fails until the fresh key appears).
	slotKey func() uint32

	PushGate
	stopped bool
	task    *simos.Task

	// The loop's state between its stages: the sample, built in place in
	// pr.Load from the /proc read, then scored and, if pushed, stamped in
	// pr. The stages are methods bound once, so a check — quiet or
	// pushing — allocates no continuation and copies no snapshot or
	// record.
	pr wire.PushRecord

	loopFn    func()      // p.loop
	sampledFn func()      // p.sampled
	checkFn   func()      // p.check
	pushedFn  func(error) // p.pushed
}

// StartDeltaPusher launches the change-threshold push loop on node,
// writing into front's aggregation slot for this back-end.
func StartDeltaPusher(node *simos.Node, nic *simnet.NIC, front int, slotKey func() uint32, cfg HybridConfig) *DeltaPusher {
	cfg = cfg.WithDefaults(0)
	p := &DeltaPusher{period: cfg.Check, node: node, nic: nic, front: front, slotKey: slotKey,
		PushGate: NewPushGate(DefaultChangeThreshold, cfg.Heartbeat)}
	p.loopFn, p.sampledFn, p.checkFn, p.pushedFn = p.loop, p.sampled, p.check, p.pushed
	p.task = node.Spawn("rmon-push-delta", func(tk *simos.Task) {
		p.task = tk
		p.loop()
	})
	return p
}

// loop starts one check: sample the kernel through /proc.
func (p *DeltaPusher) loop() {
	if p.stopped {
		p.task.Exit()
		return
	}
	p.task.ReadProc(p.sampledFn)
}

// sampled builds the sample from the /proc read, staged on the stack,
// and holds it while the task pays for scoring it. Check stamps its
// sequence number.
func (p *DeltaPusher) sampled() {
	var s simos.Snapshot
	p.task.ProcSnapshot(&s)
	recordFromSnapshotInto(&p.pr.Load, &s, 0)
	p.task.Compute(10*sim.Microsecond, p.checkFn)
}

// check scores the sample and pushes it if the gate says so.
func (p *DeltaPusher) check() {
	if !p.Check(&p.pr, p.node.Eng.Now()) {
		p.task.Sleep(p.period, p.loopFn)
		return
	}
	// Encode into the fabric's staging buffer: RDMAWrite copies the
	// payload into its own at post time, so the bytes are not needed
	// once the call returns.
	p.nic.RDMAWrite(p.task, p.front, p.slotKey(), p.pr.AppendTo(p.nic.Stage(wire.PushRecordSize)), p.pushedFn)
}

// pushed is the write's completion.
func (p *DeltaPusher) pushed(err error) {
	if p.stopped {
		p.task.Exit()
		return
	}
	p.Pushed(err)
	p.task.Sleep(p.period, p.loopFn)
}

// Stop ends the push loop.
func (p *DeltaPusher) Stop() {
	p.stopped = true
	if p.task != nil {
		p.task.Exit()
	}
}

// PushSink is the front-end half: one writable aggregation slot per
// back-end, registered on the front-end NIC. Pushed records validate
// (CRC, node identity) at arrival; valid ones flow to OnRecord.
type PushSink struct {
	front *simos.Node
	fnic  *simnet.NIC
	slots []pushSlot // by back-end ID; an ID with no slot has no region

	// OnRecord observes every valid pushed record (the Monitor's
	// notePush hook).
	OnRecord func(backend int, rec wire.PushRecord, at sim.Time)

	// Received counts valid pushed records; Torn counts writes that
	// failed validation (bad CRC, wrong node in the slot).
	Received uint64
	Torn     uint64

	closed bool
}

// deregister unpins a slot's region; a variable so tests can watch each
// removal from the NIC's region table.
var deregister = (*simnet.NIC).Deregister

type pushSlot struct {
	backend int
	buf     [wire.PushRecordSize]byte
	mr      *simnet.MR
}

// NewPushSink registers one aggregation slot per back-end on the
// front-end NIC.
func NewPushSink(front *simos.Node, fnic *simnet.NIC, backends []int) *PushSink {
	s := &PushSink{front: front, fnic: fnic}
	if len(backends) > 0 {
		s.slots = make([]pushSlot, slices.Max(backends)+1)
	}
	for _, b := range backends {
		sl := &s.slots[b]
		sl.backend = b
		s.register(sl)
	}
	return s
}

// slot returns a back-end's aggregation slot, or nil past the table;
// a back-end without a slot has one with no region.
func (s *PushSink) slot(backend int) *pushSlot {
	if backend < 0 || backend >= len(s.slots) {
		return nil
	}
	return &s.slots[backend]
}

// register pins a slot's MR: remote writes land in the slot buffer and
// validate immediately (the slot remains remotely readable too, so a
// peer front-end could audit it).
func (s *PushSink) register(sl *pushSlot) {
	sl.mr = s.fnic.RegisterWritableMR(simnet.StaticSource(sl.buf[:]), wire.PushRecordSize, func(data []byte) {
		copy(sl.buf[:], data)
		rec, err := wire.DecodePush(sl.buf[:])
		if err != nil || int(rec.Load.NodeID) != sl.backend {
			s.Torn++
			return
		}
		s.Received++
		if s.OnRecord != nil {
			s.OnRecord(sl.backend, rec, s.front.Eng.Now())
		}
	})
}

// SlotKey returns the current rkey of a back-end's aggregation slot (0
// while invalidated or unknown — writes with key 0 fail).
func (s *PushSink) SlotKey(backend int) uint32 {
	sl := s.slot(backend)
	if sl == nil || sl.mr == nil {
		return 0
	}
	return sl.mr.Key()
}

// InvalidateSlot models the aggregation region going stale for one
// back-end: the slot is deregistered immediately (in-flight and
// subsequent pushes fail) and re-registered with a fresh key after
// repin, mirroring Agent.InvalidateMR on the pull side.
func (s *PushSink) InvalidateSlot(backend int, repin sim.Time) {
	sl := s.slot(backend)
	if sl == nil || sl.mr == nil {
		return
	}
	deregister(s.fnic, sl.mr)
	sl.mr = nil
	if repin <= 0 || s.closed {
		return
	}
	s.front.Eng.Post(repin, func() {
		if s.closed || sl.mr != nil {
			return
		}
		s.register(sl)
	})
}

// Close deregisters every slot, from the highest back-end ID down. The
// slots registered in ID order and the NIC's region table is in key
// order, so each removal pops the table's last entry unless a slot was
// re-pinned since (tearing down 8192 slots by shifting the table was
// quadratic).
func (s *PushSink) Close() {
	s.closed = true
	for i := len(s.slots) - 1; i >= 0; i-- {
		if sl := &s.slots[i]; sl.mr != nil {
			deregister(s.fnic, sl.mr)
			sl.mr = nil
		}
	}
}
