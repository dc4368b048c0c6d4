package core

import (
	"fmt"
	"math"

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
//     load index moved by at least Threshold (or Heartbeat elapsed).
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
// cost ~1/Grow^k of the probe work requests.

// LoadDelta measures how far two load records are apart on the
// dispatcher's weighted index — the "did anything the dispatcher cares
// about change?" metric both the pusher threshold and the period
// controller use.
func LoadDelta(a, b wire.LoadRecord) float64 {
	w := DefaultWeights()
	return math.Abs(w.Index(a) - w.Index(b))
}

// PeriodConfig bounds the adaptive per-backend poll period.
type PeriodConfig struct {
	// Min is the fast-sweep period volatile back-ends are probed at
	// (defaults to the monitor's poll T).
	Min sim.Time
	// Max is the ceiling a quiet back-end's period decays toward
	// (default 16×Min).
	Max sim.Time
	// Grow is the geometric decay factor per quiet observation
	// (default 2).
	Grow float64
}

// WithDefaults fills unset fields, anchoring Min to poll.
func (c PeriodConfig) WithDefaults(poll sim.Time) PeriodConfig {
	if c.Min <= 0 {
		c.Min = poll
	}
	if c.Min <= 0 {
		c.Min = DefaultInterval
	}
	if c.Max < c.Min {
		c.Max = 16 * c.Min
	}
	if c.Grow <= 1 {
		c.Grow = 2
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
// quiet, Healthy, leased observation lets the period grow, by Grow up
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
	p = sim.Time(float64(p) * cfg.Grow)
	if p > cfg.Max {
		p = cfg.Max
	}
	if p < cfg.Min {
		p = cfg.Min
	}
	pc.period = p
	return pc.period
}

// HybridConfig shapes the hybrid push/pull scheme.
type HybridConfig struct {
	// Threshold is the weighted-index movement that counts as a change,
	// for both the pusher's "worth a write" test and the controller's
	// "still volatile" test (default 0.05).
	Threshold float64
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
	if c.Threshold <= 0 {
		c.Threshold = 0.05
	}
	c.Period = c.Period.WithDefaults(poll)
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.Period.Max
	}
	if c.Check <= 0 {
		c.Check = c.Period.Min
	}
	return c
}

// DeltaPusher is the back-end half of the hybrid scheme: a task that
// samples the kernel every Check and RDMA-Writes a PushRecord into the
// front-end's aggregation slot when the load moved (or Heartbeat
// elapsed). Unlike the multicast PushAgent it is change-triggered and
// one-sided: a quiet back-end costs zero work requests.
type DeltaPusher struct {
	Cfg   HybridConfig
	node  *simos.Node
	nic   *simnet.NIC
	front int
	// slotKey resolves the aggregation slot's current rkey per push, so
	// the pusher survives the front-end invalidating and re-pinning the
	// region (it simply fails until the fresh key appears).
	slotKey func() uint32

	seq     uint32
	last    wire.LoadRecord
	lastAt  sim.Time
	encBuf  []byte // reusable push-record encode scratch
	primed  bool
	stopped bool
	task    *simos.Task

	// The loop's state between its stages: the sample being scored and
	// then, with the time it was scored at, pushed. The stages are
	// methods bound once, so a check — quiet or pushing — allocates no
	// continuation.
	sample   wire.LoadRecord
	scoredAt sim.Time

	loopFn    func()               // p.loop
	sampledFn func(simos.Snapshot) // p.sampled
	checkFn   func()               // p.check
	pushedFn  func(error)          // p.pushed

	// Pushes counts delta writes posted successfully; Skips counts
	// samples below threshold; Errors counts failed writes.
	Pushes uint64
	Skips  uint64
	Errors uint64
}

// StartDeltaPusher launches the change-threshold push loop on node,
// writing into front's aggregation slot for this back-end.
func StartDeltaPusher(node *simos.Node, nic *simnet.NIC, front int, slotKey func() uint32, cfg HybridConfig) *DeltaPusher {
	cfg = cfg.WithDefaults(0)
	p := &DeltaPusher{Cfg: cfg, node: node, nic: nic, front: front, slotKey: slotKey}
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

// sampled holds the sample while the task pays for scoring it.
func (p *DeltaPusher) sampled(s simos.Snapshot) {
	p.sample = RecordFromSnapshot(s, p.seq+1)
	// The pusher is always running when it samples, so counting itself
	// in the run queue would bias every pushed record high by one task
	// relative to the one-sided probe path (which reads the kernel with
	// no agent awake). Subtract self.
	if p.sample.NrRunning > 0 {
		p.sample.NrRunning--
	}
	p.task.Compute(10*sim.Microsecond, p.checkFn)
}

// check scores the sample and pushes it if the load moved or the
// heartbeat is due.
func (p *DeltaPusher) check() {
	now := p.node.Eng.Now()
	rec := &p.sample
	if p.primed && LoadDelta(*rec, p.last) < p.Cfg.Threshold &&
		now-p.lastAt < p.Cfg.Heartbeat {
		p.Skips++
		p.task.Sleep(p.Cfg.Check, p.loopFn)
		return
	}
	p.seq++
	rec.Seq = p.seq
	pr := wire.PushRecord{PushSeq: p.seq, PushedNS: int64(now), Load: *rec}
	// Encode into the pusher's scratch; RDMAWrite stages the payload at
	// post time, so the buffer is free for reuse the moment the call
	// returns.
	p.encBuf = pr.AppendTo(p.encBuf)
	p.scoredAt = now
	p.nic.RDMAWrite(p.task, p.front, p.slotKey(), p.encBuf, p.pushedFn)
}

// pushed is the write's completion.
func (p *DeltaPusher) pushed(err error) {
	if p.stopped {
		p.task.Exit()
		return
	}
	if err != nil {
		p.Errors++
	} else {
		p.Pushes++
		p.last = p.sample
		p.lastAt = p.scoredAt
		p.primed = true
	}
	p.task.Sleep(p.Cfg.Check, p.loopFn)
}

// Task exposes the pusher task (diagnostics and tests).
func (p *DeltaPusher) Task() *simos.Task { return p.task }

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
	slots map[int]*pushSlot

	// OnRecord observes every valid pushed record (the Monitor's
	// notePush hook).
	OnRecord func(backend int, rec wire.PushRecord, at sim.Time)

	// Received counts valid pushed records; Torn counts writes that
	// failed validation (bad CRC, wrong node in the slot).
	Received uint64
	Torn     uint64

	closed bool
}

type pushSlot struct {
	backend int
	buf     []byte
	mr      *simnet.MR
}

// NewPushSink registers one aggregation slot per back-end on the
// front-end NIC.
func NewPushSink(front *simos.Node, fnic *simnet.NIC, backends []int) *PushSink {
	s := &PushSink{front: front, fnic: fnic, slots: make(map[int]*pushSlot)}
	for _, b := range backends {
		sl := &pushSlot{backend: b, buf: make([]byte, wire.PushRecordSize)}
		s.register(sl)
		s.slots[b] = sl
	}
	return s
}

// register pins a slot's MR: remote writes land in the slot buffer and
// validate immediately (the slot remains remotely readable too, so a
// peer front-end could audit it).
func (s *PushSink) register(sl *pushSlot) {
	sl.mr = s.fnic.RegisterWritableMR(simnet.StaticSource(sl.buf), wire.PushRecordSize, func(data []byte) {
		copy(sl.buf, data)
		rec, err := wire.DecodePush(sl.buf)
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
	sl := s.slots[backend]
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
	sl := s.slots[backend]
	if sl == nil || sl.mr == nil {
		return
	}
	s.fnic.Deregister(sl.mr)
	sl.mr = nil
	if repin <= 0 || s.closed {
		return
	}
	s.front.Eng.After(repin, func() {
		if s.closed || sl.mr != nil {
			return
		}
		s.register(sl)
	})
}

// Close deregisters every slot.
func (s *PushSink) Close() {
	s.closed = true
	for _, sl := range s.slots {
		if sl.mr != nil {
			s.fnic.Deregister(sl.mr)
			sl.mr = nil
		}
	}
}

func (s *PushSink) String() string {
	return fmt.Sprintf("pushsink slots=%d rx=%d torn=%d", len(s.slots), s.Received, s.Torn)
}
