package core

import (
	"errors"

	"rdmamon/internal/connpool"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// errConnReset marks a probe that failed because its pooled
// connection died underneath it (listener reset, recycled QP) rather
// than the back-end misbehaving.
var errConnReset = errors.New("core: pooled connection reset")

// initPool builds the monitor's connection pool when MonitorConfig
// asks for one (RDMA schemes only: socket probes are
// request/response messages with no connection to manage).
func (m *Monitor) initPool() {
	cfg := m.cfg.Pool
	if cfg == nil || !m.Scheme.UsesRDMA() {
		return
	}
	front := m.front
	m.pool = connpool.New[int, *simnet.QP](*cfg, func() int64 { return int64(front.Eng.Now()) })
	if m.cfg.PoolSeed != 0 {
		m.pool.SeedJitter(m.cfg.PoolSeed)
	}
	fnic := m.fnic
	m.pool.OnClose = func(_ int, q *simnet.QP) { fnic.CloseQP(q) }
}

// Pool exposes the monitor's connection pool (nil when unpooled) for
// experiments and tests.
func (m *Monitor) Pool() *connpool.Pool[int, *simnet.QP] { return m.pool }

// hotBackend classifies a back-end for the pool's degradation
// ladder. Hot back-ends (volatile or unwell — those whose staleness
// SLO is tight) may evict quiet targets' idle conns and are never
// shed willingly; quiet and quarantined ones absorb budget pressure
// first.
func (m *Monitor) hotBackend(id int) bool {
	p := m.prober(id)
	if p.Health.State() == Quarantined {
		// Presumed dead: its record is already marked undispatchable,
		// so a delayed probe costs nothing — shed first.
		return false
	}
	if st := m.hybrid(id); st != nil {
		// The hybrid period controller already computes volatility:
		// a decayed period means the back-end is quiet and its
		// effective-staleness bound is correspondingly relaxed.
		return st.ctrl.Period() <= m.cfg.Hybrid.Period.Min
	}
	// Fixed-period monitor: every back-end carries the same SLO.
	return true
}

// deferProbe pushes a shed back-end's next attempt one adaptive
// period out (hooking the hybrid PeriodController), so a saturated
// pool degrades to a slower sweep of the quiet fleet instead of
// burning every sweep re-shedding the same targets. Without the
// hybrid engine the back-end simply retries next sweep.
func (m *Monitor) deferProbe(id int) {
	if st := m.hybrid(id); st != nil {
		st.due = m.front.Eng.Now() + st.ctrl.Period()
	}
}

// tryLease acquires a ready pooled connection for a doorbell-batch
// slot. Only targets whose conn is installed and whose QP is still
// valid join a batch; anything else falls back to the sequential
// pooled path (which dials, sheds or fences as needed).
func (m *Monitor) tryLease(id int) (connpool.Lease[int, *simnet.QP], bool) {
	var zero connpool.Lease[int, *simnet.QP]
	if !m.pool.Ready(id) {
		return zero, false
	}
	l, v, _ := m.pool.Acquire(id, m.hotBackend(id))
	if v != connpool.Conn {
		return zero, false
	}
	if !l.Conn.Valid() {
		// Listener reset killed the QP while it sat idle: recycle it
		// here (epoch bump) and let the sequential path redial.
		m.FenceRejects++
		m.pool.Invalidate(l)
		return zero, false
	}
	return l, true
}

// pooledProbe runs one back-end's probe through the connection pool:
// acquire (or dial, or shed), issue the fenced one-sided read, and
// route the outcome through the same rdmaOutcome/observeProbe logic
// an unpooled probe uses. done always runs exactly once.
func (m *Monitor) pooledProbe(tk *simos.Task, id int, done func()) {
	m.pooledProbeN(tk, id, 0, done)
}

func (m *Monitor) pooledProbeN(tk *simos.Task, id int, attempt int, done func()) {
	p := m.prober(id)
	start := m.front.Eng.Now()
	finish := func(_ wire.LoadRecord, err error) {
		m.observeProbe(id, err)
		done()
	}
	if attempt > 1 {
		// Second replay in one slot: the conn keeps dying underneath
		// us — stop spinning and degrade through the failover ladder
		// (same-cycle socket fallback, breaker accounting).
		p.rdmaOutcome(tk, start, wire.LoadRecord{}, errConnReset, finish)
		return
	}
	hot := m.hotBackend(id)
	l, v, _ := m.pool.Acquire(id, hot)
	switch v {
	case connpool.Conn:
		if !l.Conn.Valid() {
			m.FenceRejects++
			m.pool.Invalidate(l)
			m.pooledProbeN(tk, id, attempt+1, done)
			return
		}
		m.fencedProbeN(tk, id, l, attempt, done)
	case connpool.Dial:
		m.fnic.Dial(tk, id, func(q *simnet.QP, err error) {
			if err != nil {
				if errors.Is(err, simnet.ErrFDLimit) {
					// Local fd exhaustion, not a target failure: no
					// breaker or health charge — shed the slot and
					// defer, like any other budget pressure.
					m.pool.DialAborted(id)
					m.PoolSheds++
					if hot {
						m.PoolShedHot++
					}
					m.deferProbe(id)
					done()
					return
				}
				m.pool.DialFailed(id)
				// A failed dial is a primary-path failure: rdmaOutcome
				// feeds the Failover breaker and falls over to the
				// standby socket this same cycle, so reachable-but-
				// undialable back-ends (fd exhaustion, dial storms)
				// keep their staleness SLO.
				p.rdmaOutcome(tk, start, wire.LoadRecord{}, err, finish)
				return
			}
			lease, lerr := m.pool.DialDone(id, q)
			if lerr != nil {
				// Pool closed while the dial was in flight; the conn
				// was already closed by DialDone.
				done()
				return
			}
			m.fencedProbeN(tk, id, lease, attempt, done)
		})
	default: // Shed: defer the slot, spend nothing.
		m.PoolSheds++
		if hot {
			m.PoolShedHot++
		}
		m.deferProbe(id)
		done()
	}
}

// fencedProbe issues the one-sided read under an already-held lease
// (the batch planner's solo-run path).
func (m *Monitor) fencedProbe(tk *simos.Task, id int, l connpool.Lease[int, *simnet.QP], done func()) {
	m.fencedProbeN(tk, id, l, 0, done)
}

// fencedProbeN is the fenced read: post, complete, then check the
// lease's epoch before the record may be served. A completion whose
// conn was recycled in flight is rejected and replayed — never
// silently served stale.
func (m *Monitor) fencedProbeN(tk *simos.Task, id int, l connpool.Lease[int, *simnet.QP], attempt int, done func()) {
	p := m.prober(id)
	start := m.front.Eng.Now()
	finish := func(_ wire.LoadRecord, err error) {
		m.observeProbe(id, err)
		done()
	}
	p.probeRDMA(tk, func(rec wire.LoadRecord, err error) {
		served := m.pool.Fence(l) && l.Conn.Valid()
		if !served {
			m.FenceRejects++
			m.pool.Invalidate(l)
			if err == nil {
				// The data is intact but crossed a recycled conn:
				// reject and replay on a fresh one.
				m.pooledProbeN(tk, id, attempt+1, done)
				return
			}
			// Failed op on a dead conn: plain failure, no breaker
			// charge for the target (Invalidate already recycled).
			p.rdmaOutcome(tk, start, wire.LoadRecord{}, err, finish)
			return
		}
		m.pool.Release(l, err)
		p.rdmaOutcome(tk, start, rec, err, finish)
	})
}
