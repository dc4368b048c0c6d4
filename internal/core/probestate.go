package core

import (
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// maxTornRetries bounds the seqlock re-read loop: every read re-reads a
// torn ring snapshot at most this many times, then fails with ErrTorn
// rather than spin against a wedged writer.
const maxTornRetries = 3

// ProbeState is what a front-end keeps for one back-end and every
// decision a probe of it makes: the record cache, the trend and health
// machines, the transport breaker and the counters. It holds no clock
// and no transport. The simulated Prober (which embeds it) and the live
// livemon.Probe both drive it, each with its own reads, sockets and
// notion of now, so a probe outcome means the same thing on both paths.
//
// A probe of an RDMA scheme runs:
//
//	UseStandby? ─yes→ socket → ReArmDue? → re-arm read → ReArmDone → Apply(socket)
//	     └no→ read → DecodeRead (RetryTorn: read again) → FallBack? ─yes→ socket → Apply
//	                                                       └no→ Apply(rdma)
//
// and a socket scheme's probe is a socket round trip and Apply.
type ProbeState struct {
	// Scheme is the back-end's monitoring scheme: under an RDMA scheme a
	// record the socket standby served leaves the back-end Degraded.
	Scheme Scheme

	// What a steady-state probe touches sits together: the cached
	// record, then Trend and Health.
	last   wire.LoadRecord
	lastAt sim.Time
	// updates counts the records store put in the cache (0: none yet).
	updates uint64

	// Trend accumulates this back-end's load-index slope from every
	// sample that arrives (ring reads fold whole windows; point probes
	// and pushes fold one sample, de-duplicated by kernel timestamp).
	Trend TrendTracker
	// Health tracks this back-end's probe-driven state machine.
	Health HealthTracker

	// Failover, if non-nil, arms the transport breaker for an RDMA
	// scheme: consecutive RDMA failures trip probing onto the agent's
	// standby socket channel, a low-rate background re-arm probe
	// retests the RDMA path, and only consecutive re-arm successes
	// fail back.
	Failover *Failover

	// LastTransport is the transport of the most recent probe outcome.
	LastTransport Transport
	// Fallbacks counts probe attempts over the standby socket channel
	// while the scheme's transport is RDMA, answered or not.
	Fallbacks uint64
	// ReArms counts background re-arm RDMA probes issued while tripped.
	ReArms uint64
	// TornRetries counts ring snapshots re-read because they caught the
	// writer mid-update (seqlock discipline; benign, bounded).
	TornRetries uint64
	// RingSamples counts fresh history samples folded from ring reads —
	// the observation coverage one-sided reads bought. A sample read
	// twice counts once.
	RingSamples uint64
	// Errors counts failed probes (bad key, torn record, timeout ...).
	Errors int

	// view is the decode target for history-ring reads, allocated on the
	// first ring decode: 3.9 KB that a back-end whose agent exports no
	// ring never needs.
	view *wire.RingView
}

// Latest returns the most recent record and its arrival time. The
// record is the cache, handed out by pointer: it is valid until the
// next outcome lands, so a caller that keeps it copies it.
func (s *ProbeState) Latest() (*wire.LoadRecord, sim.Time, bool) {
	if s.updates == 0 {
		return nil, 0, false
	}
	return &s.last, s.lastAt, true
}

// Ring returns the window the last successful ring decode produced (nil
// before the first). It is reused by the next ring decode.
func (s *ProbeState) Ring() *wire.RingView { return s.view }

// DecodeRead decodes a one-sided read's bytes into *rec: a history ring
// when ring is set (its fresh samples fold into Trend and count as
// RingSamples, and rec is its newest record), a bare record otherwise.
// No allocation either way once the first ring decode has created the
// view.
func (s *ProbeState) DecodeRead(rec *wire.LoadRecord, data []byte, ring bool) error {
	if !ring {
		return wire.DecodeInto(rec, data)
	}
	if s.view == nil {
		s.view = new(wire.RingView)
	}
	if err := wire.DecodeRingInto(s.view, data); err != nil {
		return err
	}
	s.RingSamples += uint64(s.Trend.ObserveRing(s.view))
	*rec = s.view.Newest()
	return nil
}

// RetryTorn reports whether a read whose decode returned err, after
// tries re-reads so far, is read again: a torn ring snapshot (the
// writer mid-update at the DMA instant) is, up to maxTornRetries times,
// and each re-read is counted. Past the bound the read fails with
// wire.ErrTorn.
func (s *ProbeState) RetryTorn(err error, tries int) bool {
	if err != wire.ErrTorn || tries >= maxTornRetries {
		return false
	}
	s.TornRetries++
	return true
}

// UseStandby reports whether this probe goes over the standby socket
// channel because the breaker is tripped, and if so counts it as a
// fallback.
func (s *ProbeState) UseStandby() bool {
	if s.Failover == nil || !s.Failover.Tripped() {
		return false
	}
	s.Fallbacks++
	return true
}

// FallBack is the breaker step after a primary (RDMA) read that ended
// in err. It reports whether the probe degrades to the standby socket
// channel in the same cycle, and counts that fallback: if only the RDMA
// path is broken (stale rkey, NIC trouble) the record is still one
// socket round trip away, and the staleness window stays ~one sweep
// instead of tripAfter sweeps. A dead back-end fails both paths and
// Apply sees the primary's failure.
func (s *ProbeState) FallBack(err error) bool {
	fo := s.Failover
	if fo == nil {
		return false
	}
	if err == nil {
		fo.PrimaryOK()
		return false
	}
	fo.PrimaryFail()
	s.Fallbacks++
	return true
}

// ReArmDue is called once per standby probe, after its socket reply,
// and reports whether this probe also carries a background re-arm read
// of the RDMA path, counting it. The re-arm's outcome goes to ReArmDone
// and never to Apply: the RDMA path is not trusted for data until it
// has proven itself failBackAfter times in a row.
func (s *ProbeState) ReArmDue() bool {
	if !s.Failover.ShouldReArm() {
		return false
	}
	s.ReArms++
	return true
}

// ReArmDone records a re-arm read's outcome in the breaker.
func (s *ProbeState) ReArmDone(err error) {
	if err == nil {
		s.Failover.ReArmOK()
	} else {
		s.Failover.ReArmFail()
	}
}

// Apply records one probe's outcome at now: rec over transport tr, or
// err. A record is copied once, into the cache, folded into Trend, and
// moves Health to Healthy — or to Degraded when an RDMA scheme's record
// came over the socket standby. A failure counts an error and moves
// Health towards quarantine. It returns the cached record, nil on a
// failure; rec is read only when err is nil.
func (s *ProbeState) Apply(now sim.Time, rec *wire.LoadRecord, err error, tr Transport) *wire.LoadRecord {
	s.LastTransport = tr
	if err != nil {
		s.Errors++
		s.Health.Fail()
		return nil
	}
	s.store(rec, now)
	if tr == TransportSocket && s.Scheme.UsesRDMA() {
		s.Health.DegradedOK()
	} else {
		s.Health.OK()
	}
	return &s.last
}

// store is the cache's one write path, probes and pushes alike: it copies
// rec in at now, counts it and folds it into Trend (a ring read already has).
func (s *ProbeState) store(rec *wire.LoadRecord, now sim.Time) {
	s.last = *rec
	s.lastAt = now
	s.updates++
	s.Trend.ObserveRecord(&s.last)
}

// ObservePoll feeds the outcome just applied (err) into a's adaptive
// poll decision and returns the period until the next probe. With a
// history ring (ring set) the change test is the ring's own change
// rate — the un-smoothed |dIndex/dt| over the window the read fetched,
// scaled to one fast sweep — rather than two point samples, so a
// back-end that oscillated between two probes does not look quiet.
func (s *ProbeState) ObservePoll(a *AdaptivePoll, err error, ring bool, threshold float64, leaseHeld bool) sim.Time {
	var rec *wire.LoadRecord
	if err == nil && s.updates > 0 {
		rec = &s.last
	}
	if ring {
		perSweep := s.Trend.LastRate() * (float64(a.Ctrl.Cfg.Min) / float64(sim.Second))
		return a.ObserveRate(rec, perSweep, threshold, s.Health.State(), leaseHeld)
	}
	return a.Observe(rec, threshold, s.Health.State(), leaseHeld)
}
