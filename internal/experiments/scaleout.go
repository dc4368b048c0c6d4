package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// scaleOutMin is the fleet size at which -exp scale switches from the
// sweep (which measures raw sweep time) to the pooled scale-out run
// (which measures connection-lifecycle robustness). The sweep's cost
// model holds one QP per back-end alive forever; past ~1k back-ends
// that is exactly the assumption the connpool layer exists to drop.
const scaleOutMin = 1024

// scaleOutSLO bounds hot back-ends' effective staleness, in probe
// periods T (time the cached record has been WRONG — old-but-accurate
// records on a decayed period do not count),
// through the dial-storm and fd-clamp phases and after each phase
// settles: degradation must land on quiet back-ends (shed/deferred),
// never on the volatile minority the dispatcher actually needs.
const scaleOutSLO = 8

// ScaleOutPhase is one phase of the pooled scale-out run with the
// pool/fence activity that phase generated.
type ScaleOutPhase struct {
	Name     string
	EndMS    int64
	Dials    uint64 // pool dial starts in this phase
	DialErrs uint64 // failed dials (refused, fd-limited, timed out)
	Evicts   uint64 // conns recycled to make room under the budget
	Sheds    uint64 // probe slots shed by the degradation ladder
	Fences   uint64 // completions rejected by the epoch fence
	Breaks   uint64 // per-target dial breakers opened

	HotAgeMaxT float64 // worst hot effective staleness during the phase, in T
	EndAgeT    float64 // hot effective staleness at the phase boundary
	WindowMax  uint64  // max dials in any 1s window ending in the phase
}

// ScaleOutData is the pooled scale-out run: fleet-scale monitoring on
// an explicit conn/dial/fd budget, driven through churn, dial-storm
// and fd-exhaustion phases.
type ScaleOutData struct {
	Backends, Volatile     int
	MaxConns, DialsPerSec  int
	Phases                 []ScaleOutPhase
	StaleEpochReads        int    // pull-stream KTime regressions (must be 0)
	FenceRejects           uint64 // fenced-and-replayed completions (informative)
	HotErrors              int    // probe errors on hot back-ends (must be 0)
	NoRecord               int    // back-ends with no record after warm-up
	LeakedConns, LeakedQPs int
	LeakedFDs              int
	BreakersStuck          int // breakers still open after cooldown
	violations
}

// ScaleOut runs the connection-lifecycle scale-out: a hybrid-monitored
// fleet (default 8192 back-ends) on a pooled transport whose conn and
// dial budgets are far below fleet size, through six phases — warm,
// steady, churn (crash/restart a quiet slice), dial storm, fd clamp,
// cooldown. It asserts the PR's acceptance criteria: zero stale-epoch
// reads (pull-stream kernel timestamps never regress), dial rate
// bounded by the budget in every 1s window, the hot-backend staleness
// SLO held through the storm and clamp phases, zero hot probe errors,
// and zero leaked conns/QPs/fds after teardown.
func ScaleOut(o Options) *ScaleOutData {
	n := o.Backends
	if n <= 0 {
		n = 8192
	}
	maxConns := o.MaxConns
	if maxConns <= 0 {
		maxConns = max(n/8, 64)
	}
	dialsPerSec := max(n, 512)
	shards, batch := sweepEngine(o, 8)
	volatile := max(n/32, 2)

	d := &ScaleOutData{
		Backends: n, Volatile: volatile,
		MaxConns: maxConns, DialsPerSec: dialsPerSec,
		violations: fleetViolations(),
	}

	c := cluster.New(cluster.Config{
		Backends:      n,
		Scheme:        core.RDMASync,
		Poll:          scalePoll,
		Seed:          o.seed() + int64(n),
		NoServers:     true,
		ProbeTimeout:  scalePoll,
		MonitorShards: shards,
		MonitorBatch:  batch,
		Hybrid:        hybridConfig(),
		// The failover ladder is armed: a refused or timed-out dial
		// degrades to the same-cycle socket standby instead of losing
		// the probe, which is how hot back-ends keep their SLO (and
		// zero errors) through the storm phase.
		Failover: true,
		Pool: &connpool.Config{
			MaxConns:    maxConns,
			DialsPerSec: float64(dialsPerSec),
			IdleAfterNS: int64(500 * sim.Millisecond),
			BreakAfter:  2,
			// Short reopen window: fault phases are sub-second, and a
			// breaker must get its half-open probe (and close) before
			// the cooldown assertion.
			ReopenAfterNS: int64(200 * sim.Millisecond),
		},
	})
	hot := startFlappers(c, n, volatile)
	hotSet := make(map[int]bool, len(hot))
	for _, b := range hot {
		hotSet[b] = true
	}

	// Phase schedule. The churn slice crashes quiet back-ends only (the
	// experiment's contract is that budget pressure and fault recovery
	// land on the quiet fleet); flapper IDs sit at stride n/volatile.
	unit := 500 * sim.Millisecond
	if o.Quick {
		unit = 250 * sim.Millisecond
	}
	warmEnd := unit
	steadyEnd := warmEnd + unit
	churnEnd := steadyEnd + 2*unit
	stormEnd := churnEnd + unit
	clampEnd := stormEnd + unit
	coolEnd := clampEnd + unit

	var plan faults.Plan
	plan.Seed = o.seed() + 1
	crashAt := steadyEnd + unit/4
	crashed := 0
	for id := 2; id <= n && crashed < n/32; id++ {
		if hotSet[id] {
			continue
		}
		plan.Crashes = append(plan.Crashes, faults.Crash{
			Node: id, At: crashAt, RestartAt: crashAt + 300*sim.Millisecond,
		})
		crashed++
	}
	// Listener bounces on the volatile minority mid-churn: hot conns
	// are resident by construction, so each reset lands on a live
	// pooled QP and must go through the fence-reject-and-replay path
	// (visible in the fences column) without denting the hot SLO.
	for i, b := range hot {
		plan.ListenerResets = append(plan.ListenerResets, faults.ListenerReset{
			Node: b, At: crashAt + 400*sim.Millisecond + sim.Time(i)*sim.Millisecond,
		})
	}
	plan.DialStorms = append(plan.DialStorms, faults.DialStorm{
		Target: faults.Any, Start: churnEnd, End: stormEnd,
		Refuse: 0.5, DelayProb: 0.3,
		DelayMin: 100 * sim.Microsecond, DelayMax: 2 * sim.Millisecond,
	})
	plan.FDClamps = append(plan.FDClamps, faults.FDClamp{
		Node: c.Front.ID, Start: stormEnd, End: clampEnd, Limit: maxConns / 2,
	})
	c.ApplyFaults(plan)

	// Stale-epoch watchdog: within the pull stream (RDMA reads and
	// socket fallbacks — pushes have their own ordering guard in
	// notePush) a served record's kernel timestamp must never regress.
	// A read completing over a recycled conn that escaped the fence
	// would deliver an older MR image and trip this.
	lastPullK := make(map[int]int64, n)
	for _, b := range c.Monitor.Backends() {
		b := b
		p := c.Monitor.Probers[b]
		p.OnRecord = func(rec wire.LoadRecord, _ sim.Time) {
			if p.LastTransport == core.TransportPush {
				return
			}
			if rec.KTimeNS < lastPullK[b] {
				d.StaleEpochReads++
			}
			lastPullK[b] = rec.KTimeNS
		}
	}

	// Dial-rate audit: every dial start, timestamped by the pool.
	var dialTimes []int64
	c.Monitor.Pool().OnDial = func(_ int, at int64) {
		dialTimes = append(dialTimes, at)
	}

	// Hot effective-staleness tracker, sampled every T (the hybrid
	// experiment's metric); a hot back-end with no record counts as
	// stale since the start of the run.
	stale := newEffStale(c, 0)
	hotEff := func() sim.Time {
		eff, _, missing := stale.sweep(hot)
		if missing > 0 {
			return c.Eng.Now()
		}
		return eff
	}
	var hotStaleMax sim.Time
	age := c.Eng.NewTicker(scalePoll, func() {
		if eff := hotEff(); eff > hotStaleMax {
			hotStaleMax = eff
		}
	})
	defer age.Stop()

	shedSum := func(s connpool.Stats) uint64 {
		var t uint64
		for _, v := range s.Sheds {
			t += v
		}
		return t
	}
	prev := c.Monitor.Pool().Stats()
	prevDials := 0
	runPhase := func(name string, end sim.Time) {
		hotStaleMax = 0
		c.Eng.RunUntil(end)
		cur := c.Monitor.Pool().Stats()
		ph := ScaleOutPhase{
			Name:     name,
			EndMS:    int64(end / sim.Millisecond),
			Dials:    cur.Dials - prev.Dials,
			DialErrs: cur.DialErrors - prev.DialErrors,
			Evicts:   cur.Evictions - prev.Evictions,
			Sheds:    shedSum(cur) - shedSum(prev),
			Breaks:   cur.BreakerOpens - prev.BreakerOpens,

			HotAgeMaxT: float64(hotStaleMax) / float64(scalePoll),
			EndAgeT:    float64(hotEff()) / float64(scalePoll),
			WindowMax:  maxDialWindow(dialTimes[prevDials:], int64(sim.Second)),
		}
		ph.Fences = c.Monitor.FenceRejects - d.FenceRejects
		d.FenceRejects = c.Monitor.FenceRejects
		d.Phases = append(d.Phases, ph)
		prev = cur
		prevDials = len(dialTimes)
	}

	runPhase("warm", warmEnd)
	d.NoRecord = noRecord(c)
	runPhase("steady", steadyEnd)
	runPhase("churn", churnEnd)
	runPhase("storm", stormEnd)
	runPhase("fdclamp", clampEnd)
	runPhase("cool", coolEnd)

	d.HotErrors = probeErrors(c, hot)
	d.BreakersStuck = c.Monitor.Pool().BreakersOpen()

	// Teardown: everything the run acquired must come back.
	pool := c.Monitor.Pool()
	c.Monitor.Stop()
	d.LeakedConns = pool.Stats().Live
	d.LeakedQPs = c.FNIC.QPsOpen()
	d.LeakedFDs = c.FNIC.FDsInUse()

	d.assess()
	return d
}

// maxDialWindow returns the largest number of dial starts falling in
// any window of the given width, over an ascending timestamp slice.
func maxDialWindow(ts []int64, width int64) uint64 {
	var best, lo int
	for hi := range ts {
		for ts[hi]-ts[lo] >= width {
			lo++
		}
		if hi-lo+1 > best {
			best = hi - lo + 1
		}
	}
	return uint64(best)
}

func (d *ScaleOutData) assess() {
	if d.StaleEpochReads > 0 {
		d.violate("%d stale-epoch reads served (pull-stream kernel time regressed)", d.StaleEpochReads)
	}
	if d.FenceRejects == 0 {
		d.violate("churn never exercised the epoch fence (listener resets must land on live conns)")
	}
	if d.NoRecord > 0 {
		d.violate("%d back-ends had no record after warm-up", d.NoRecord)
	}
	if d.HotErrors > 0 {
		d.violate("%d probe errors on hot back-ends (degradation must land on quiet ones)", d.HotErrors)
	}
	if d.BreakersStuck > 0 {
		d.violate("%d dial breakers still open after cooldown", d.BreakersStuck)
	}
	if d.LeakedConns != 0 || d.LeakedQPs != 0 || d.LeakedFDs != 0 {
		d.violate("leaked conns=%d QPs=%d fds=%d after Stop", d.LeakedConns, d.LeakedQPs, d.LeakedFDs)
	}
	budget := uint64(d.DialsPerSec + d.DialsPerSec/4)
	for _, ph := range d.Phases {
		if ph.WindowMax > budget {
			d.violate("phase %s: %d dials in a 1s window exceeds budget %d",
				ph.Name, ph.WindowMax, budget)
		}
		switch ph.Name {
		case "storm", "fdclamp", "cool":
			// Through refusal storms and fd exhaustion, hot back-ends
			// ride resident conns (or pushes): their records never age
			// past the SLO.
			if ph.HotAgeMaxT > scaleOutSLO {
				d.violate("phase %s: hot effective staleness %.1fT exceeds the %dT SLO",
					ph.Name, ph.HotAgeMaxT, scaleOutSLO)
			}
		case "churn":
			// Crash-timeout stalls are allowed transiently; the phase
			// must END recovered.
			if ph.EndAgeT > scaleOutSLO {
				d.violate("churn did not settle: hot effective staleness %.1fT at phase end (SLO %dT)",
					ph.EndAgeT, scaleOutSLO)
			}
		}
	}
}

// Result renders the scale-out as a phase table.
func (d *ScaleOutData) Result() *Result {
	r := &Result{
		ID: "scale",
		Title: fmt.Sprintf(
			"Pooled scale-out: %d back-ends on %d conns, %d dials/s (churn + dial storm + fd clamp)",
			d.Backends, d.MaxConns, d.DialsPerSec),
		Columns: []string{"phase", "end ms", "dials", "dial errs", "evicts",
			"sheds", "fences", "breaks", "hot stale max T", "hot stale end T", "win dials/s"},
		Failed: d.Failed,
	}
	for _, p := range d.Phases {
		r.Rows = append(r.Rows, []string{
			p.Name,
			fmt.Sprintf("%d", p.EndMS),
			fmt.Sprintf("%d", p.Dials),
			fmt.Sprintf("%d", p.DialErrs),
			fmt.Sprintf("%d", p.Evicts),
			fmt.Sprintf("%d", p.Sheds),
			fmt.Sprintf("%d", p.Fences),
			fmt.Sprintf("%d", p.Breaks),
			f1(p.HotAgeMaxT),
			f1(p.EndAgeT),
			fmt.Sprintf("%d", p.WindowMax),
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"criteria: 0 stale-epoch reads (saw %d), dial rate <= %d+burst in every 1s window, hot age <= %dT through storm/fdclamp, 0 leaks after Stop",
		d.StaleEpochReads, d.DialsPerSec, scaleOutSLO))
	r.Notes = append(r.Notes, fmt.Sprintf(
		"fence rejected+replayed %d completions; %d/%d back-ends volatile (hot)",
		d.FenceRejects, d.Volatile, d.Backends))
	r.Notes = append(r.Notes, d.Notes...)
	return r
}
