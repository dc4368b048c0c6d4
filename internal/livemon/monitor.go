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

	mu        sync.RWMutex
	probes    map[string]*Probe
	last      map[string]wire.LoadRecord
	lastAt    map[string]time.Time
	errs      map[string]error
	health    map[string]*core.HealthTracker
	transport map[string]core.Transport
	weights   core.Weights

	// Adaptive-period state (nil maps when the layout is fixed-period).
	adaptive *AdaptiveConfig
	ctrl     map[string]*core.PeriodController
	obs      map[string]wire.LoadRecord
	obsHas   map[string]bool
	due      map[string]time.Time
	decayed  uint64

	cpool *ConnPool // shared connection pool (nil when probes own conns)

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
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
}

// AdaptiveConfig shapes the live adaptive-period controller — the
// deployable counterpart of the simulated monitor's hybrid decay.
type AdaptiveConfig struct {
	// Max is the decay ceiling (default 16x the poll interval).
	Max time.Duration
	// Grow is the period multiplier per quiet poll (default 2).
	Grow float64
	// Threshold is the load-index delta that counts as change
	// (default 0.05).
	Threshold float64
	// LeaseValid, when set, reports whether this front-end still holds
	// primaryship; losing it forces every target to the fast period so
	// a re-elected primary starts from fresh records.
	LeaseValid func() bool
}

func (c AdaptiveConfig) withDefaults(interval time.Duration) AdaptiveConfig {
	if c.Max <= 0 {
		c.Max = 16 * interval
	}
	if c.Grow <= 1 {
		c.Grow = 2
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.05
	}
	return c
}

// NewMonitor dials every target and starts polling. Targets that fail
// to dial are reported in the returned error map; the monitor still
// runs for the ones that connected (an empty monitor is valid).
func NewMonitor(targets []string, interval time.Duration) (*Monitor, map[string]error) {
	return NewMonitorCfg(targets, MonitorConfig{Interval: interval})
}

// NewMonitorCfg is NewMonitor with an explicit polling layout.
func NewMonitorCfg(targets []string, cfg MonitorConfig) (*Monitor, map[string]error) {
	interval := cfg.Interval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	m := &Monitor{
		interval:  interval,
		probes:    make(map[string]*Probe),
		last:      make(map[string]wire.LoadRecord),
		lastAt:    make(map[string]time.Time),
		errs:      make(map[string]error),
		health:    make(map[string]*core.HealthTracker),
		transport: make(map[string]core.Transport),
		weights:   core.DefaultWeights(),
		stop:      make(chan struct{}),
	}
	if cfg.Adaptive != nil {
		a := cfg.Adaptive.withDefaults(interval)
		m.adaptive = &a
		m.ctrl = make(map[string]*core.PeriodController)
		m.obs = make(map[string]wire.LoadRecord)
		m.obsHas = make(map[string]bool)
		m.due = make(map[string]time.Time)
	}
	if cfg.Pool != nil {
		m.cpool = NewConnPool(*cfg.Pool)
	}
	dialErrs := make(map[string]error)
	var connected []string
	for _, t := range targets {
		var p *Probe
		var err error
		if m.cpool != nil {
			p, err = DialPooled(m.cpool, t)
		} else {
			p, err = Dial(t)
		}
		if err != nil {
			dialErrs[t] = err
			continue
		}
		m.probes[t] = p
		m.health[t] = &core.HealthTracker{}
		if m.adaptive != nil {
			m.ctrl[t] = &core.PeriodController{Cfg: core.PeriodConfig{
				Min:  sim.Time(interval),
				Max:  sim.Time(m.adaptive.Max),
				Grow: m.adaptive.Grow,
			}}
		}
		connected = append(connected, t)
	}
	s := cfg.Shards
	if s <= 0 || s > len(connected) {
		s = len(connected)
	}
	for i := 0; i < s; i++ {
		lo := i * len(connected) / s
		hi := (i + 1) * len(connected) / s
		m.wg.Add(1)
		go m.shardPoll(connected[lo:hi])
	}
	return m, dialErrs
}

// fetchOne issues one fetch against a target and folds the outcome
// into the shared maps.
func (m *Monitor) fetchOne(target string, p *Probe) {
	rdma := p.Scheme().UsesRDMA()
	rec, tr, err := p.FetchVia()
	m.mu.Lock()
	ht := m.health[target]
	if err != nil {
		m.errs[target] = err
		ht.Fail()
	} else {
		delete(m.errs, target)
		m.last[target] = rec
		m.lastAt[target] = time.Now()
		m.transport[target] = tr
		if rdma && tr == core.TransportSocket {
			// Alive, but only over the standby channel: Degraded
			// keeps it dispatchable without calling it Healthy.
			ht.DegradedOK()
		} else {
			ht.OK()
		}
	}
	if m.adaptive != nil {
		// A failed fetch counts as change: trouble must restore the
		// fast sweep, never decay away from it.
		changed := err != nil || !m.obsHas[target]
		if !changed {
			obs := m.obs[target]
			changed = core.LoadDelta(&rec, &obs) >= m.adaptive.Threshold
		}
		if err == nil {
			m.obs[target] = rec
			m.obsHas[target] = true
		}
		leaseHeld := m.adaptive.LeaseValid == nil || m.adaptive.LeaseValid()
		period := m.ctrl[target].Observe(changed, ht.State(), leaseHeld)
		m.due[target] = time.Now().Add(time.Duration(period))
	}
	m.mu.Unlock()
}

// dueNow reports whether the adaptive controller allows a probe of
// target this tick (always true in fixed-period layouts).
func (m *Monitor) dueNow(target string) bool {
	if m.adaptive == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Now().Before(m.due[target]) {
		m.decayed++
		return false
	}
	return true
}

// ProbePeriod returns the adaptive controller's current period for a
// target (the base interval when the layout is fixed-period).
func (m *Monitor) ProbePeriod(target string) time.Duration {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if c := m.ctrl[target]; c != nil {
		return time.Duration(c.Period())
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

// quarantineSkip reports whether a quarantined target's probe should
// be skipped this tick (presumed-dead targets are checked at 1/4 rate;
// each attempt still costs a full deadline if it's gone). skipped is
// the target's consecutive-skip counter, maintained by the caller.
func (m *Monitor) quarantineSkip(target string, skipped *int) bool {
	m.mu.RLock()
	quarantined := m.health[target].State() == core.Quarantined
	m.mu.RUnlock()
	if !quarantined {
		*skipped = 0
		return false
	}
	*skipped++
	return *skipped%quarantineBackoff != 0
}

// shardPoll sweeps a slice of the fleet sequentially each tick — the
// live analogue of one simulated monitor shard. The first sweep runs at
// once and fetches every target: a fresh tracker is Healthy and a zero
// due instant has passed.
func (m *Monitor) shardPoll(targets []string) {
	defer m.wg.Done()
	tick := time.NewTicker(m.interval)
	defer tick.Stop()
	skipped := make(map[string]int, len(targets))
	sweep := func() {
		for _, t := range targets {
			select {
			case <-m.stop:
				return
			default:
			}
			skip := skipped[t]
			if m.quarantineSkip(t, &skip) {
				skipped[t] = skip
				continue
			}
			skipped[t] = skip
			if !m.dueNow(t) {
				continue
			}
			m.fetchOne(t, m.probes[t])
		}
	}
	sweep()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			sweep()
		}
	}
}

// ArmFailover arms a transport breaker on every connected probe (see
// Probe.SetFailover; socket-scheme probes ignore it).
func (m *Monitor) ArmFailover(cfg core.FailoverConfig) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, p := range m.probes {
		p.SetFailover(cfg)
	}
}

// Transport reports which transport served a target's newest record
// (meaningful once Latest returns ok).
func (m *Monitor) Transport(target string) core.Transport {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.transport[target]
}

// Probe returns the monitor's probe for a target (nil if unknown);
// tests use it to inspect breaker state.
func (m *Monitor) Probe(target string) *Probe {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.probes[target]
}

// Health returns the probe-driven health state of a target; unknown
// targets report Quarantined.
func (m *Monitor) Health(target string) core.Health {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ht := m.health[target]
	if ht == nil {
		return core.Quarantined
	}
	return ht.State()
}

// Latest returns the newest record for a target.
func (m *Monitor) Latest(target string) (wire.LoadRecord, time.Time, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.last[target]
	return rec, m.lastAt[target], ok
}

// Err returns the target's most recent fetch error, if its last fetch
// failed.
func (m *Monitor) Err(target string) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.errs[target]
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
		for t, rec := range m.last {
			if requireEligible {
				if ht := m.health[t]; ht != nil && !ht.State().Eligible() {
					continue
				}
			}
			idx := m.weights.Index(rec)
			if best == "" || idx < bestIdx {
				best, bestIdx = t, idx
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
	out := make([]string, 0, len(m.probes))
	for t := range m.probes {
		out = append(out, t)
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
	m.closeOnce.Do(func() {
		close(m.stop)
		m.wg.Wait()
		m.mu.Lock()
		for _, p := range m.probes {
			p.Close()
		}
		m.probes = map[string]*Probe{}
		m.mu.Unlock()
		if m.cpool != nil {
			m.cpool.Close()
		}
	})
}
