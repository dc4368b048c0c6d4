package livemon

import (
	"sync"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// Monitor polls a fleet of live agents on a fixed interval and caches
// the newest record per agent — the live counterpart of the simulated
// front-end monitoring process. It is safe for concurrent use.
type Monitor struct {
	interval time.Duration
	weights  core.Weights
	adaptive *AdaptiveConfig // nil when the layout is fixed-period
	cpool    *ConnPool       // shared connection pool (nil when probes own conns)
	loops    *loops          // one sweep loop per shard

	mu      sync.RWMutex
	targets map[string]*target
	decayed uint64
}

// target is what the monitor keeps for one connected target. probe is
// set at dial time and cleared only by Close, after the sweeps have
// stopped; the other fields are guarded by Monitor.mu.
type target struct {
	probe     *Probe
	health    core.HealthTracker
	last      wire.LoadRecord
	lastAt    time.Time // zero until the first record arrives
	err       error     // the newest fetch's error, nil after a success
	transport core.Transport
	poll      core.AdaptivePoll // adaptive layouts only
	due       time.Time         // adaptive layouts: when the next probe is due
	skipped   int               // consecutive quarantine skips
}

// quarantineBackoff is how many poll ticks are skipped between probes
// of a quarantined target: a presumed-dead host is checked at 1/4 rate
// so the fleet's probe budget goes to the live ones, while recovery is
// still noticed within a few intervals.
const quarantineBackoff = 4

// MonitorConfig shapes the live monitor's polling layout.
type MonitorConfig struct {
	// Interval is the poll period (default 50ms).
	Interval time.Duration
	// Shards is the number of sweep workers, each polling a contiguous
	// slice of the fleet per tick — at hundreds of targets a small S
	// bounds the goroutine and timer count the way the simulated
	// monitor's shard tasks do. Zero (or more than there are targets)
	// means one worker per target.
	Shards int
	// Adaptive, when non-nil, layers the change-rate-adaptive poll
	// period controller on every target: a quiet target's period decays
	// toward Adaptive.Max, any load-index movement, fetch failure,
	// Suspect/Degraded health or lost lease snaps it back to Interval
	// within one cycle.
	Adaptive *AdaptiveConfig
	// Pool, when non-nil, shares connections across the fleet through a
	// budgeted pool instead of one owned connection per probe: fetches
	// lease a conn per sweep, dials are rate-limited and breaker-gated,
	// idle conns are garbage-collected. Monitor.Close closes the pool.
	Pool *PoolConfig
	// Failover, when non-nil, arms a transport breaker on every probe
	// at dial, before the first sweep (see Probe.SetFailover; socket
	// schemes ignore it): an RDMA target whose region is gone keeps
	// reporting over the standby channel as Degraded.
	Failover *core.FailoverConfig
}

// AdaptiveConfig shapes the live adaptive-period controller — the
// deployable counterpart of the simulated monitor's hybrid decay.
type AdaptiveConfig struct {
	// Max is the decay ceiling (default 16x the poll interval).
	Max time.Duration
	// Threshold is the load-index delta that counts as change
	// (default core.DefaultChangeThreshold, 0.05).
	Threshold float64
	// LeaseValid, when set, reports whether this front-end still holds
	// primaryship; losing it forces every target to the fast period so
	// a re-elected primary starts from fresh records.
	LeaseValid func() bool
}

// NewMonitor dials every target and starts polling. Targets that fail
// to dial are reported in the returned error map; the monitor still
// runs for the ones that connected (an empty monitor is valid).
func NewMonitor(addrs []string, cfg MonitorConfig) (*Monitor, map[string]error) {
	interval := cfg.Interval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	m := &Monitor{
		interval: interval,
		weights:  core.DefaultWeights(),
		loops:    newLoops(),
		targets:  make(map[string]*target),
	}
	var period core.PeriodConfig
	if cfg.Adaptive != nil {
		a := *cfg.Adaptive
		if a.Threshold <= 0 {
			a.Threshold = core.DefaultChangeThreshold
		}
		m.adaptive = &a
		period = core.PeriodConfig{Min: sim.Time(interval), Max: sim.Time(a.Max)}.WithDefaults(sim.Time(interval))
	}
	if cfg.Pool != nil {
		m.cpool = NewConnPool(*cfg.Pool)
	}
	dialErrs := make(map[string]error)
	var connected []*target
	for _, addr := range addrs {
		var p *Probe
		var err error
		if m.cpool != nil {
			p, err = DialPooled(m.cpool, addr)
		} else {
			p, err = Dial(addr)
		}
		if err != nil {
			dialErrs[addr] = err
			continue
		}
		if cfg.Failover != nil {
			p.SetFailover(*cfg.Failover)
		}
		t := &target{probe: p}
		t.poll.Ctrl.Cfg = period
		m.targets[addr] = t
		connected = append(connected, t)
	}
	s := cfg.Shards
	if s <= 0 || s > len(connected) {
		s = len(connected)
	}
	for i := 0; i < s; i++ {
		shard := connected[i*len(connected)/s : (i+1)*len(connected)/s]
		m.loops.every(interval, true, func() { m.sweep(shard) })
	}
	return m, dialErrs
}

// sweep fetches a slice of the fleet in turn — the live analogue of one
// simulated monitor shard's sweep. The first sweep runs at start and
// fetches every target: a fresh tracker is Healthy and a zero due
// instant has passed.
func (m *Monitor) sweep(shard []*target) {
	for _, t := range shard {
		if m.loops.stopped() {
			return
		}
		if !m.skip(t) {
			m.fetchOne(t)
		}
	}
}

// skip reports whether a target sits this sweep out: a quarantined
// target is probed only every quarantineBackoff-th sweep (each attempt
// at a dead host costs a full deadline), and under the adaptive layout
// a target is probed only once its period has elapsed.
func (m *Monitor) skip(t *target) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.health.State() == core.Quarantined {
		t.skipped++
		if t.skipped%quarantineBackoff != 0 {
			return true
		}
	} else {
		t.skipped = 0
	}
	if m.adaptive != nil && time.Now().Before(t.due) {
		m.decayed++
		return true
	}
	return false
}

// fetchOne issues one fetch against a target and folds the outcome into
// its record.
func (m *Monitor) fetchOne(t *target) {
	rdma := t.probe.Scheme().UsesRDMA()
	rec, tr, err := t.probe.FetchVia()
	m.mu.Lock()
	defer m.mu.Unlock()
	t.err = err
	var seen *wire.LoadRecord
	if err != nil {
		t.health.Fail()
	} else {
		t.last, t.lastAt, t.transport = rec, time.Now(), tr
		seen = &t.last
		if rdma && tr == core.TransportSocket {
			// Alive, but only over the standby channel: Degraded
			// keeps it dispatchable without calling it Healthy.
			t.health.DegradedOK()
		} else {
			t.health.OK()
		}
	}
	if a := m.adaptive; a != nil {
		// A failed fetch counts as change: trouble must restore the
		// fast sweep, never decay away from it.
		leaseHeld := a.LeaseValid == nil || a.LeaseValid()
		period := t.poll.Observe(seen, a.Threshold, t.health.State(), leaseHeld)
		t.due = time.Now().Add(time.Duration(period))
	}
}

// ProbePeriod returns the adaptive controller's current period for a
// target (the base interval when the layout is fixed-period).
func (m *Monitor) ProbePeriod(addr string) time.Duration {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if t := m.targets[addr]; t != nil && m.adaptive != nil {
		return time.Duration(t.poll.Ctrl.Period())
	}
	return m.interval
}

// Decayed returns how many probe slots the adaptive controller has
// skipped so far.
func (m *Monitor) Decayed() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.decayed
}

// Transport reports which transport served a target's newest record
// (meaningful once Latest returns ok).
func (m *Monitor) Transport(addr string) core.Transport {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if t := m.targets[addr]; t != nil {
		return t.transport
	}
	return 0
}

// Health returns the probe-driven health state of a target; unknown
// targets report Quarantined.
func (m *Monitor) Health(addr string) core.Health {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if t := m.targets[addr]; t != nil {
		return t.health.State()
	}
	return core.Quarantined
}

// Latest returns the newest record for a target.
func (m *Monitor) Latest(addr string) (wire.LoadRecord, time.Time, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if t := m.targets[addr]; t != nil && !t.lastAt.IsZero() {
		return t.last, t.lastAt, true
	}
	return wire.LoadRecord{}, time.Time{}, false
}

// Err returns the target's most recent fetch error, if its last fetch
// failed.
func (m *Monitor) Err(addr string) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if t := m.targets[addr]; t != nil {
		return t.err
	}
	return nil
}

// LeastLoaded returns the connected target with the smallest load
// index (the live analogue of the dispatcher's choice), or "" if no
// records have arrived yet. Quarantined and probation targets are
// skipped while any eligible target exists; if the whole fleet is
// condemned it falls back to considering everyone.
func (m *Monitor) LeastLoaded() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pick := func(requireEligible bool) string {
		best := ""
		bestIdx := 0.0
		for addr, t := range m.targets {
			if t.lastAt.IsZero() || requireEligible && !t.health.State().Eligible() {
				continue
			}
			idx := m.weights.IndexOf(&t.last)
			if best == "" || idx < bestIdx {
				best, bestIdx = addr, idx
			}
		}
		return best
	}
	if best := pick(true); best != "" {
		return best
	}
	return pick(false)
}

// Targets lists the connected targets.
func (m *Monitor) Targets() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.targets))
	for addr, t := range m.targets {
		if t.probe != nil {
			out = append(out, addr)
		}
	}
	return out
}

// ConnPool exposes the monitor's shared connection pool (nil when the
// layout is one owned connection per probe); tests use it to inspect
// budgets and leak-check teardown.
func (m *Monitor) ConnPool() *ConnPool { return m.cpool }

// Close stops polling, closes all probe connections and the shared
// pool. Idempotent and safe for concurrent use: every caller returns
// only after teardown has completed exactly once.
func (m *Monitor) Close() {
	m.loops.close(func() error {
		m.mu.Lock()
		for _, t := range m.targets {
			t.probe.Close()
			t.probe = nil
		}
		m.mu.Unlock()
		if m.cpool != nil {
			m.cpool.Close()
		}
		return nil
	})
}
