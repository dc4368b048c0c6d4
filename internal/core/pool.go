package core

import (
	"errors"

	"rdmamon/internal/connpool"
	"rdmamon/internal/simnet"
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
	// Deterministic backoff jitter, derived from the engine's seed the
	// same way tcpverbs' SeedJitter is on the live path.
	m.pool.SeedJitter(front.Eng.Seed()*31 + 0x9e37)
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
		return st.Ctrl.Period() <= m.cfg.Hybrid.Period.Min
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
		m.due[id] = m.front.Eng.Now() + st.Ctrl.Period()
	}
}

// acquire leases back-end id's pooled conn. A conn whose QP died
// while it sat idle (a listener reset) is recycled here — an epoch
// bump, counted as a fence reject — and reported stale.
func (m *Monitor) acquire(id int, hot bool) (l connpool.Lease[int, *simnet.QP], v connpool.Verdict, stale bool) {
	l, v, _ = m.pool.Acquire(id, hot)
	if stale = v == connpool.Conn && !l.Conn.Valid(); stale {
		m.FenceRejects++
		m.pool.Invalidate(l)
	}
	return l, v, stale
}

// acquire is a pooled read's first stage: lease the back-end's conn
// and post, dial, or shed the slot, as the pool answers. A torn re-read
// acquires again too (its lease went back at the fence) and keeps the
// probe's start; under budget pressure it may be shed, which defers the
// probe like any shed slot.
func (sc *sweepScratch) acquire() {
	m, id := sc.m, sc.p.Backend
	if sc.attempt > 1 {
		// Second replay in one slot: the conn keeps dying underneath
		// us — stop spinning and degrade through the failover ladder
		// (same-cycle socket fallback, breaker accounting).
		sc.then(nil, errConnReset)
		return
	}
	sc.hot = m.hotBackend(id)
	l, v, stale := m.acquire(id, sc.hot)
	switch {
	case stale:
		sc.attempt++
		sc.acquire()
	case v == connpool.Conn:
		sc.lease = l
		sc.post()
	case v == connpool.Dial:
		m.fnic.Dial(sc.tk, id, sc.dialedFn)
	default: // Shed: defer the slot, spend nothing.
		sc.shed()
	}
}

// shed defers the slot under budget pressure and moves on.
func (sc *sweepScratch) shed() {
	m := sc.m
	if sc.hot {
		m.PoolShedHot++
	}
	m.deferProbe(sc.p.Backend)
	sc.advance()
}

// dialed is the dial's outcome: read over the new conn, or fail.
func (sc *sweepScratch) dialed(q *simnet.QP, err error) {
	m, id := sc.m, sc.p.Backend
	if err != nil {
		if errors.Is(err, simnet.ErrFDLimit) {
			// Local fd exhaustion, not a target failure: no breaker or
			// health charge — shed the slot and defer, like any other
			// budget pressure.
			m.pool.DialAborted(id)
			sc.shed()
			return
		}
		m.pool.DialFailed(id)
		// A failed dial is a primary-path failure: the outcome feeds the
		// Failover breaker and falls over to the standby socket this
		// same cycle, so reachable-but-undialable back-ends (fd
		// exhaustion, dial storms) keep their staleness SLO.
		sc.then(nil, err)
		return
	}
	l, lerr := m.pool.DialDone(id, q)
	if lerr != nil {
		// Pool closed while the dial was in flight; the conn was
		// already closed by DialDone.
		sc.advance()
		return
	}
	sc.lease, sc.start = l, m.front.Eng.Now()
	sc.post()
}
