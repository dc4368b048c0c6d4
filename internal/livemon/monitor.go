package livemon

import (
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// Monitor polls a fleet of live agents on a fixed interval; each
// target's probe keeps its newest record, trend and health — the live
// counterpart of the simulated front-end monitoring process. It is safe
// for concurrent use. A target's accessors read its probe's state under
// the probe's lock, so they wait out a fetch in flight on that target
// (bounded by the probe's operation deadline).
type Monitor struct {
	adaptive *AdaptiveConfig // nil when the layout is fixed-period
	loops    *loops          // one poll loop per target

	targets map[string]*target // fixed once NewMonitor returns
}

// target is what the monitor keeps for one connected target beside its
// probe's state. The fields are guarded by the probe's lock.
type target struct {
	probe   *Probe
	err     error             // the newest fetch's error, nil after a success
	poll    core.AdaptivePoll // adaptive layouts only
	due     time.Time         // adaptive layouts: when the next probe is due
	skipped int               // consecutive quarantine skips
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
	// Adaptive, when non-nil, layers the change-rate-adaptive poll
	// period controller on every target: a quiet target's period decays
	// toward Adaptive.Max, any load-index movement (for a target with a
	// history ring, the window's change rate), fetch failure,
	// Suspect/Degraded health or lost lease snaps it back to Interval
	// within one cycle.
	Adaptive *AdaptiveConfig
	// Failover arms a transport breaker on every probe
	// at dial, before the first poll (see Probe.SetFailover; socket
	// schemes ignore it): an RDMA target whose region is gone keeps
	// reporting over the standby channel as Degraded.
	Failover bool
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
		loops:   newLoops(),
		targets: make(map[string]*target),
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
	dialErrs := make(map[string]error)
	var connected []*target
	for _, addr := range addrs {
		p, err := Dial(addr)
		if err != nil {
			dialErrs[addr] = err
			continue
		}
		if cfg.Failover {
			p.SetFailover()
		}
		t := &target{probe: p}
		t.poll.Ctrl.Cfg = period
		m.targets[addr] = t
		connected = append(connected, t)
	}
	// Each target's first tick runs at start and fetches it: a fresh
	// tracker is Healthy and a zero due instant has passed.
	for _, t := range connected {
		m.loops.every(interval, true, func() { m.probe(t) })
	}
	return m, dialErrs
}

// probe fetches one target, unless it sits this tick out: a
// quarantined target is probed only every quarantineBackoff-th tick
// (each attempt at a dead host costs a full deadline), and under the
// adaptive layout a target is probed only once its period has elapsed.
// The fetch applies its own outcome to the probe's state; under the
// adaptive layout the probe state then decides the next period.
func (m *Monitor) probe(t *target) {
	a := m.adaptive
	// A lost lease forces the fast period so a re-elected primary starts
	// from fresh records. It is asked before the probe's lock is taken.
	leaseHeld := a == nil || a.LeaseValid == nil || a.LeaseValid()
	p := t.probe
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Health.State() == core.Quarantined {
		t.skipped++
		if t.skipped%quarantineBackoff != 0 {
			return
		}
	} else {
		t.skipped = 0
	}
	if a != nil && time.Now().Before(t.due) {
		return
	}
	_, _, t.err = p.fetch()
	if a != nil {
		// A failed fetch counts as change: trouble must restore the
		// fast sweep, never decay away from it.
		period := p.st.ObservePoll(&t.poll, t.err, p.ringK > 0, a.Threshold, leaseHeld)
		t.due = time.Now().Add(time.Duration(period))
	}
}

// locked returns addr's target with its probe locked (the caller
// unlocks), or nil for an unknown target.
func (m *Monitor) locked(addr string) *target {
	t := m.targets[addr]
	if t != nil {
		t.probe.mu.Lock()
	}
	return t
}

// Transport reports which transport the newest fetch of a target went
// over (the one that served its record when Err is nil).
func (m *Monitor) Transport(addr string) core.Transport {
	if t := m.locked(addr); t != nil {
		defer t.probe.mu.Unlock()
		return t.probe.st.LastTransport
	}
	return 0
}

// Health returns the probe-driven health state of a target; unknown
// targets report Quarantined.
func (m *Monitor) Health(addr string) core.Health {
	if t := m.locked(addr); t != nil {
		defer t.probe.mu.Unlock()
		return t.probe.st.Health.State()
	}
	return core.Quarantined
}

// Latest returns the newest record for a target and when it arrived.
func (m *Monitor) Latest(addr string) (wire.LoadRecord, time.Time, bool) {
	if t := m.locked(addr); t != nil {
		defer t.probe.mu.Unlock()
		if rec, at, ok := t.probe.st.Latest(); ok {
			return *rec, t.probe.start.Add(time.Duration(at)), true
		}
	}
	return wire.LoadRecord{}, time.Time{}, false
}

// Err returns the target's most recent fetch error, if its last fetch
// failed.
func (m *Monitor) Err(addr string) error {
	if t := m.locked(addr); t != nil {
		defer t.probe.mu.Unlock()
		return t.err
	}
	return nil
}

// Close stops polling and closes all probe connections. Idempotent and
// safe for concurrent use: every caller returns only after teardown has
// completed exactly once. The targets' last state stays readable.
func (m *Monitor) Close() {
	m.loops.close(func() error {
		for _, t := range m.targets {
			t.probe.conn.Close() // unlocked: Probe.Close's lock waits out a fetch in flight
		}
		return nil
	})
}
