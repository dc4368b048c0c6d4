package core

import (
	"errors"

	"rdmamon/internal/connpool"
	"rdmamon/internal/sim"
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

// pooledProbe is a shard task's pooled probe in flight: acquire (or
// dial, or shed), issue the fenced one-sided read, and route the
// outcome through the same rdmaOutcome/observeProbe logic an unpooled
// probe uses. A shard probes one back-end at a time, a replay re-enters
// with the same back-end and continuation, and every path out of a
// probe ends in done exactly once, so one instance per shard, its
// continuations bound once, carries every pooled probe the shard makes
// without building a closure.
type pooledProbe struct {
	m    *Monitor
	tk   *simos.Task
	read *rdmaRead // the shard's probe read

	id      int
	attempt int // replays so far
	hot     bool
	start   sim.Time
	lease   connpool.Lease[int, *simnet.QP]
	done    func()

	dialedFn func(*simnet.QP, error)       // pp.dialed
	readFn   func(*wire.LoadRecord, error) // pp.readDone
	finishFn func(*wire.LoadRecord, error) // pp.finish
}

func newPooledProbe(m *Monitor, read *rdmaRead) *pooledProbe {
	pp := &pooledProbe{m: m, tk: read.tk, read: read}
	pp.dialedFn, pp.readFn, pp.finishFn = pp.dialed, pp.readDone, pp.finish
	return pp
}

// run probes back-end id through the pool; done always runs exactly
// once.
func (pp *pooledProbe) run(id, attempt int, done func()) {
	m := pp.m
	p := m.prober(id)
	pp.id, pp.attempt, pp.done = id, attempt, done
	pp.start = m.front.Eng.Now()
	if attempt > 1 {
		// Second replay in one slot: the conn keeps dying underneath
		// us — stop spinning and degrade through the failover ladder
		// (same-cycle socket fallback, breaker accounting).
		p.rdmaOutcome(pp.tk, pp.start, nil, errConnReset, pp.finishFn)
		return
	}
	pp.hot = m.hotBackend(id)
	l, v, _ := m.pool.Acquire(id, pp.hot)
	switch v {
	case connpool.Conn:
		if !l.Conn.Valid() {
			m.FenceRejects++
			m.pool.Invalidate(l)
			pp.run(id, attempt+1, done)
			return
		}
		pp.fenced(id, l, attempt, done)
	case connpool.Dial:
		m.fnic.Dial(pp.tk, id, pp.dialedFn)
	default: // Shed: defer the slot, spend nothing.
		pp.shed()
	}
}

// shed defers the slot under budget pressure and ends the probe.
func (pp *pooledProbe) shed() {
	m := pp.m
	m.PoolSheds++
	if pp.hot {
		m.PoolShedHot++
	}
	m.deferProbe(pp.id)
	pp.end()
}

// dialed is the dial's outcome: probe over the new conn, or fail.
func (pp *pooledProbe) dialed(q *simnet.QP, err error) {
	m, id := pp.m, pp.id
	if err != nil {
		if errors.Is(err, simnet.ErrFDLimit) {
			// Local fd exhaustion, not a target failure: no breaker or
			// health charge — shed the slot and defer, like any other
			// budget pressure.
			m.pool.DialAborted(id)
			pp.shed()
			return
		}
		m.pool.DialFailed(id)
		// A failed dial is a primary-path failure: rdmaOutcome feeds the
		// Failover breaker and falls over to the standby socket this
		// same cycle, so reachable-but-undialable back-ends (fd
		// exhaustion, dial storms) keep their staleness SLO.
		m.prober(id).rdmaOutcome(pp.tk, pp.start, nil, err, pp.finishFn)
		return
	}
	lease, lerr := m.pool.DialDone(id, q)
	if lerr != nil {
		// Pool closed while the dial was in flight; the conn was
		// already closed by DialDone.
		pp.end()
		return
	}
	pp.fenced(id, lease, pp.attempt, pp.done)
}

// fenced issues the one-sided read under an already-held lease (also
// the batch planner's solo-run path). Its completion is epoch-fenced
// in readDone before the record may be served.
func (pp *pooledProbe) fenced(id int, l connpool.Lease[int, *simnet.QP], attempt int, done func()) {
	pp.id, pp.lease, pp.attempt, pp.done = id, l, attempt, done
	pp.start = pp.m.front.Eng.Now()
	pp.read.start(pp.m.prober(id), pp.readFn)
}

// readDone checks the lease's epoch before the record may be served. A
// completion whose conn was recycled in flight is rejected and replayed
// — never silently served stale.
func (pp *pooledProbe) readDone(rec *wire.LoadRecord, err error) {
	m, l := pp.m, pp.lease
	p := m.prober(pp.id)
	if served := m.pool.Fence(l) && l.Conn.Valid(); !served {
		m.FenceRejects++
		m.pool.Invalidate(l)
		if err == nil {
			// The data is intact but crossed a recycled conn: reject
			// and replay on a fresh one.
			pp.run(pp.id, pp.attempt+1, pp.done)
			return
		}
		// Failed op on a dead conn: plain failure, no breaker charge
		// for the target (Invalidate already recycled).
		p.rdmaOutcome(pp.tk, pp.start, nil, err, pp.finishFn)
		return
	}
	m.pool.Release(l, err)
	p.rdmaOutcome(pp.tk, pp.start, rec, err, pp.finishFn)
}

// finish is a probe's outcome, applied: feed the period controller and
// end the probe.
func (pp *pooledProbe) finish(_ *wire.LoadRecord, err error) {
	pp.m.observeProbe(pp.id, err)
	pp.end()
}

// end hands control back to the sweep, dropping the probe's references
// first: done may start the shard's next pooled probe.
func (pp *pooledProbe) end() {
	done := pp.done
	pp.done, pp.lease = nil, connpool.Lease[int, *simnet.QP]{}
	done()
}
