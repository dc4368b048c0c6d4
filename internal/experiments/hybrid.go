package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
)

func init() {
	register("hybrid", "hybrid push/pull vs all-pull: probe WRs at equal staleness bound (512 back-ends)",
		func(o Options) *Result { return Hybrid(o).Result() })
}

// hybridPoll is the fast-sweep period T both modes run at — the claim
// is about work requests at EQUAL staleness, so T is a constant.
const hybridPoll = 10 * sim.Millisecond

// hybridStaleSLO bounds effective staleness, in T, for BOTH modes: the
// headline contract is that the hybrid scheme keeps the all-pull bound
// while issuing a fraction of the probe work requests.
const hybridStaleSLO = 5

// hybridWRRatio is the headline work-request reduction the experiment
// asserts: all-pull probe reads >= this multiple of hybrid probe reads.
const hybridWRRatio = 10

// HybridPoint is one mode's run over the same fleet and workload.
type HybridPoint struct {
	Mode     string // "all-pull" or "hybrid"
	Backends int
	Volatile int

	ProbeWRs uint64 // one-sided probe reads posted in the window
	PushWRs  uint64 // one-sided delta writes posted in the window
	Decayed  uint64 // probe slots skipped by the adaptive period

	EffStaleMaxT float64 // worst effective staleness, in T
	AgeMaxT      float64 // worst raw cache age, in T

	Torn          uint64 // pushes failing validation (must be 0)
	StalePushes   uint64 // out-of-order pushes dropped (must be 0 here)
	Errors        int    // probe + push errors (must be 0)
	SeqViolations int    // per-transport sequence regressions (must be 0)
	NoRecord      int    // back-ends with no cached record after warmup
}

// HybridData holds both runs and the pass/fail assessment.
type HybridData struct {
	Points  []HybridPoint
	WRRatio float64 // all-pull probe WRs / hybrid probe WRs
	verdict
}

// Hybrid runs the same fleet twice — the all-pull sharded sweep of the
// scale experiment, then the hybrid push/pull scheme — and asserts the
// headline contract: the hybrid run must match the all-pull staleness
// bound while issuing >= hybridWRRatio fewer probe work requests. A
// deterministic minority of back-ends flap between idle and busy so
// both runs monitor a mixed fleet; the rest stay quiet, which is where
// the hybrid scheme earns its reduction.
func Hybrid(o Options) *HybridData { return hybrid(o, hybridConfig()) }

// hybrid runs the comparison with h as the hybrid run's controller
// config, so a test can hand it one that must break the contract.
func hybrid(o Options, h *core.HybridConfig) *HybridData {
	n := 512
	if o.Quick {
		n = 64
	}
	if o.Backends > 0 {
		n = o.Backends
	}
	volatile := max(n/32, 2)

	d := &HybridData{Points: make([]HybridPoint, 2)}
	knobs := []*core.HybridConfig{nil, h} // all-pull, then hybrid
	forEach(o, 2, func(i int) { d.Points[i] = hybridPoint(o, n, volatile, knobs[i]) })

	pull, hyb := d.Points[0], d.Points[1]
	if hyb.ProbeWRs > 0 {
		d.WRRatio = float64(pull.ProbeWRs) / float64(hyb.ProbeWRs)
	}
	for _, p := range d.Points {
		if p.EffStaleMaxT > hybridStaleSLO {
			d.fail("%s effective staleness %.1fT exceeds the %dT bound", p.Mode, p.EffStaleMaxT, hybridStaleSLO)
		}
		if p.Errors > 0 || p.Torn > 0 || p.StalePushes > 0 {
			d.fail("%s saw %d errors, %d torn pushes, %d stale pushes", p.Mode, p.Errors, p.Torn, p.StalePushes)
		}
		if p.SeqViolations > 0 {
			d.fail("%s saw %d per-transport sequence regressions", p.Mode, p.SeqViolations)
		}
		if p.NoRecord > 0 {
			d.fail("%s left %d back-ends with no record", p.Mode, p.NoRecord)
		}
	}
	if d.WRRatio < hybridWRRatio {
		d.fail("probe-WR reduction %.1fx, want >= %dx at the same staleness bound", d.WRRatio, hybridWRRatio)
	}
	if hyb.PushWRs == 0 {
		d.fail("hybrid run posted no delta pushes")
	}
	return d
}

// hybridConfig is the controller config of the hybrid and scale-out
// runs: the adaptive period spans 1T to 64T, a quiet back-end pushes a
// heartbeat every 32T and samples its load every T.
func hybridConfig() *core.HybridConfig {
	return &core.HybridConfig{
		Period:    core.PeriodConfig{Min: hybridPoll, Max: 64 * hybridPoll},
		Heartbeat: 32 * hybridPoll,
		Check:     hybridPoll,
	}
}

// startFlappers runs the deterministic volatile minority: back-end
// volatileID(v) alternates a CPU-bound burst with idle sleep, phases
// and duty cycles staggered by index so changes land all over the
// sweep. No randomness — the runs must replay bit-identically.
func startFlappers(c *cluster.Cluster, n, volatile int) []int {
	ids := make([]int, 0, volatile)
	for v := 0; v < volatile; v++ {
		b := 1 + v*(n/volatile)
		ids = append(ids, b)
		node := c.Backends[b-1]
		on := sim.Time(80+10*(v%5)) * sim.Millisecond
		off := sim.Time(120+15*(v%7)) * sim.Millisecond
		phase := sim.Time(v*13) * sim.Millisecond
		node.Spawn("flapper", func(tk *simos.Task) {
			var cycle func()
			cycle = func() {
				tk.Compute(on, func() { tk.Sleep(off, cycle) })
			}
			tk.Sleep(phase, cycle)
		})
	}
	return ids
}

// hybridPoint runs one mode: a monitoring-only RDMA-Sync cluster (the
// experiment measures the monitoring planes, not the web servers) with
// the sharded/batched engine, a flapping minority, and the staleness
// audit sampling every T. A nil knobs is the all-pull run.
func hybridPoint(o Options, n, volatile int, knobs *core.HybridConfig) HybridPoint {
	shards, batch := sweepEngine(o, 4)
	cfg := cluster.Config{
		Backends:      n,
		Scheme:        core.RDMASync,
		Poll:          hybridPoll,
		Seed:          o.seed() + int64(n),
		NoServers:     true,
		MonitorShards: shards,
		MonitorBatch:  batch,
		Hybrid:        knobs,
	}
	c := cluster.New(cfg)
	startFlappers(c, n, volatile)

	pt := HybridPoint{Mode: "all-pull", Backends: n, Volatile: volatile}
	if knobs != nil {
		pt.Mode = "hybrid"
	}

	// I4: the push transport has its own counter space, so regressions
	// are checked per transport, never across them.
	watchSeqs(c, nil, func(int, core.Transport, uint32, uint32) { pt.SeqViolations++ }, nil)

	warm := 400 * sim.Millisecond
	dur := 2 * sim.Second
	if o.Quick {
		dur = 1500 * sim.Millisecond
	}

	// The staleness audit: every T after warm-up, each back-end's
	// effective staleness against ground truth.
	var effMax, ageMax sim.Time
	c.Eng.RunUntil(warm)
	stale := newEffStale(c, core.DefaultChangeThreshold, warm)
	reads0 := c.FNIC.RDMAReads
	audit := c.Eng.NewTicker(hybridPoll, func() {
		for _, b := range c.Monitor.Backends() {
			eff, age, ok := stale.sample(b)
			if !ok {
				pt.NoRecord++
				continue
			}
			effMax, ageMax = max(effMax, eff), max(ageMax, age)
		}
	})
	c.Eng.RunUntil(warm + dur)
	audit.Stop()

	pt.ProbeWRs = c.FNIC.RDMAReads - reads0
	pt.EffStaleMaxT = float64(effMax) / float64(hybridPoll)
	pt.AgeMaxT = float64(ageMax) / float64(hybridPoll)
	for _, p := range c.Monitor.Probers {
		pt.Errors += p.Errors
	}
	for _, push := range c.Pushers {
		if push != nil {
			pt.PushWRs += push.Pushes
			pt.Errors += int(push.Errors)
		}
	}
	pt.Decayed = c.Monitor.Decayed
	pt.StalePushes = c.Monitor.StalePushes
	if c.Monitor.Sink != nil {
		pt.Torn = c.Monitor.Sink.Torn
	}
	return pt
}

// Result renders the comparison and the asserted contract.
func (d *HybridData) Result() *Result {
	r := &Result{
		ID:    "hybrid",
		Title: "Hybrid push/pull vs all-pull: probe WRs at equal staleness bound (10ms sweep, RDMA-Sync)",
		Columns: []string{"mode", "backends", "volatile", "probe WRs", "push WRs",
			"decayed", "eff-stale max(T)", "age max(T)", "errors"},
		Failed: d.Failed,
	}
	for _, p := range d.Points {
		r.Rows = append(r.Rows, []string{
			p.Mode,
			fmt.Sprintf("%d", p.Backends),
			fmt.Sprintf("%d", p.Volatile),
			fmt.Sprintf("%d", p.ProbeWRs),
			fmt.Sprintf("%d", p.PushWRs),
			fmt.Sprintf("%d", p.Decayed),
			f1(p.EffStaleMaxT),
			f1(p.AgeMaxT),
			fmt.Sprintf("%d", p.Errors),
		})
	}
	pull, hyb := d.Points[0], d.Points[1]
	totalPull := pull.ProbeWRs + pull.PushWRs
	totalHyb := hyb.ProbeWRs + hyb.PushWRs
	totalRatio := 0.0
	if totalHyb > 0 {
		totalRatio = float64(totalPull) / float64(totalHyb)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("probe-WR reduction: %.1fx (criterion: >= %dx at the same %dT effective-staleness bound)",
			d.WRRatio, hybridWRRatio, hybridStaleSLO),
		fmt.Sprintf("total one-sided WR reduction including delta pushes: %.1fx", totalRatio),
		"effective staleness counts time-while-wrong: an old record whose load index still matches ground truth is accurate, not stale")
	r.Notes = append(r.Notes, d.Notes...)
	return r
}
