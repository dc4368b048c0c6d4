package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/experiments"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

func sweepConfig(backends int, seed int64) cluster.Config {
	return cluster.Config{Backends: backends, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: seed, NoServers: true, MonitorShards: 4, MonitorBatch: 32}
}

func dispatchConfig(backends int, seed int64) cluster.Config {
	return cluster.Config{Backends: backends, Scheme: core.RDMASync, Poll: 10 * sim.Millisecond,
		Seed: seed, Policy: cluster.PolicyLeastLoad, MonitorShards: 4, MonitorBatch: 32}
}

// clusterCounters is the state of a simulated cluster the benchmark
// reads from outside: every field is a public counter.
type clusterCounters struct {
	now       sim.Time
	events    uint64
	reads     uint64
	served    uint64
	routed    uint64
	sends     uint64
	ctxSwitch uint64
	errors    int
}

func readCounters(c *cluster.Cluster, withNodes bool) clusterCounters {
	k := clusterCounters{now: c.Eng.Now(), events: c.Eng.Processed,
		reads: c.FNIC.RDMAReads, served: c.TotalServed(), sends: c.FNIC.SendsPosted}
	if c.Dispatcher != nil {
		k.routed = c.Dispatcher.Routed
	}
	for _, p := range c.Monitor.Probers {
		k.errors += p.Errors
	}
	if withNodes { // walks every node: only at window boundaries
		k.ctxSwitch = c.Front.K.Snapshot().CtxSwitch
		for i, n := range c.Backends {
			k.ctxSwitch += n.K.Snapshot().CtxSwitch
			k.sends += c.BNICs[i].SendsPosted
		}
	}
	return k
}

func fingerprint(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprintln(h, parts...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// policySeams wraps the public function fields of dispatch-64's
// policy and dispatcher with counting timers. on/off swaps wrapped and
// original functions between slices, so untraced slices of the traced
// run pay nothing.
type policySeams struct {
	latest, health, localFrac seam
	picks                     uint64
	on, off                   func()
}

func wrapPolicy(c *cluster.Cluster) *policySeams {
	p := c.Policy.(*loadbalance.WeightedLeastLoad)
	s := &policySeams{}
	// LocalFrac runs back-ends² times per pick; the others once per
	// back-end per pick.
	s.latest.every, s.health.every, s.localFrac.every = 16, 16, 16
	source, exclude, localFrac := p.Source, p.Exclude, p.LocalFrac
	wSource := func(b int) (wire.LoadRecord, bool) {
		if !s.latest.enter() {
			return source(b)
		}
		t0 := time.Now()
		rec, ok := source(b)
		s.latest.exit(t0)
		return rec, ok
	}
	wExclude := func(b int) bool {
		if !s.health.enter() {
			return exclude(b)
		}
		t0 := time.Now()
		ex := exclude(b)
		s.health.exit(t0)
		return ex
	}
	wLocalFrac := func(b int) float64 {
		if !s.localFrac.enter() {
			return localFrac(b)
		}
		t0 := time.Now()
		f := localFrac(b)
		s.localFrac.exit(t0)
		return f
	}
	s.on = func() {
		p.Source, p.Exclude, p.LocalFrac = wSource, wExclude, wLocalFrac
		c.Dispatcher.OnRoute = func(int) { s.picks++ }
	}
	s.off = func() {
		p.Source, p.Exclude, p.LocalFrac = source, exclude, localFrac
		c.Dispatcher.OnRoute = nil
	}
	return s
}

// runCluster measures sweep-8192 and dispatch-64: build and warm a
// cluster setupReps times, let the last one settle, then advance it one
// slice of simulated time per iteration until the wall-clock budget is
// spent. ops picks the workload's operation out of the counters.
func runCluster(cfg *runConfig, o *outcome, dispatch bool) error {
	sz := cfg.sz
	warm, settle := sz.sweepWarm, sz.sweepSettle
	build := func() (*cluster.Cluster, error) {
		c := cluster.New(sweepConfig(sz.sweepBackends, cfg.seed))
		c.Eng.RunFor(warm)
		return c, nil
	}
	ops := func(k clusterCounters) uint64 { return k.reads }
	if dispatch {
		warm, settle = sz.dispatchWarm, sz.dispatchSettle
		build = func() (*cluster.Cluster, error) {
			c := cluster.New(dispatchConfig(sz.dispatchBackends, cfg.seed))
			c.StartRUBiS(sz.dispatchClients, 100*sim.Millisecond, cfg.seed+1)
			c.Eng.RunFor(warm)
			return c, nil
		}
		ops = func(k clusterCounters) uint64 { return k.served }
	}
	c, err := timedSetup(cfg, o, build)
	if err != nil {
		return err
	}
	endWarm := cfg.tr.begin("warmup", 0)
	c.Eng.RunFor(settle - warm)
	endWarm()
	queueLen := c.Eng.Len()
	runtime.GC() // construction garbage is not the measured window's

	var seams *policySeams
	if cfg.traced && dispatch {
		seams = wrapPolicy(c)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := readCounters(c, true)
	var window clusterCounters // at the end of the fingerprint window
	var cycleP50 float64
	var td struct { // sums over the traced slices
		events, reads uint64
		sim           sim.Time
	}
	prev := first
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || i < sz.fpSlices; i++ {
		traced := cfg.traced && i%2 == 1
		if traced && seams != nil {
			seams.on()
		}
		t0 := time.Now()
		c.Eng.RunFor(sz.slice)
		wall := time.Since(t0)
		if traced {
			cfg.tr.add("Engine.RunFor", 0, t0, wall)
			if seams != nil {
				seams.off()
			}
		}
		cur := readCounters(c, false)
		o.slices = append(o.slices, sliceStat{wall: wall, ops: ops(cur) - ops(prev), traced: traced})
		if traced {
			td.events += cur.events - prev.events
			td.reads += cur.reads - prev.reads
			td.sim += cur.now - prev.now
		}
		prev = cur
		if i == sz.fpSlices-1 {
			runtime.ReadMemStats(&m1)
			window = readCounters(c, true)
			cycleP50 = c.Monitor.CycleTime.Percentile(50)
			// The monitor keeps every sample it takes, so memory grows with
			// simulated time: read it where every run has simulated the
			// same span, or a faster simulator would look hungrier.
			o.rssMB = peakRSSMB()
		}
	}
	last := readCounters(c, true)
	nodes := uint64(len(c.Backends) + 1)
	if err := moreSetups(cfg, o, build, func(*cluster.Cluster) {}); err != nil {
		return err
	}

	// Correctness: the fingerprint and the exact counts cover a fixed
	// span of simulated time, so they do not depend on how many slices
	// the wall-clock budget allowed.
	winS := (window.now - first.now).Seconds()
	o.fingerprint = fingerprint(window.reads, window.served, window.errors, window.events, window.now, cycleP50)
	o.attempted = (last.reads - first.reads) + (last.routed - first.routed)
	o.failed = uint64(last.errors - first.errors)
	if o.failed > 0 {
		o.violate("%d probe errors", o.failed)
	}
	if last.reads == first.reads {
		o.violate("the monitor completed no reads")
	}
	if dispatch && last.served == first.served {
		o.violate("no request was served")
	}

	wall, _ := totals(o.slices)
	simS := (last.now - first.now).Seconds()
	o.counts = map[string]float64{
		"sim.events_per_s":     float64(last.events-first.events) / wall.Seconds(),
		"sim.events_per_sim_s": float64(window.events-first.events) / winS,
		"sim.queue_len":        float64(queueLen),
		"core.probe_errors":    float64(window.errors - first.errors),
	}
	if dispatch {
		o.counts["httpsim.wall_us_per_request"] = wall.Seconds() * 1e6 / float64(last.served-first.served)
		o.counts["httpsim.served_per_sim_s"] = float64(window.served-first.served) / winS
		o.counts["loadbalance.picks"] = float64(window.routed - first.routed)
	} else {
		reads := float64(window.reads - first.reads)
		o.counts["core.wall_ns_per_read"] = float64(wall) / float64(last.reads-first.reads)
		o.counts["core.reads_per_sim_s"] = reads / winS
		o.counts["core.allocs_per_read"] = float64(m1.Mallocs-m0.Mallocs) / reads
		o.counts["core.cycle_p50_us"] = cycleP50
	}
	o.notes = append(o.notes, fmt.Sprintf("simulated %.1f s in %d slices of %v: %.3f host s per simulated s (median slice); simulated cycle p50 %.1f us",
		simS, len(o.slices), sz.slice, median(sliceWalls(o.slices))/1e6/sz.slice.Seconds(), cycleP50))

	if !cfg.traced {
		return nil
	}
	tracedWall, _ := totals(o.pick(true))
	o.table = func(lp *layerPass) *breakdown {
		b := newBreakdown(tracedWall)
		L := lp.out
		// Engine time is counted once, in the sim row; the unit costs
		// of layers that run inside the simulator have the engine time
		// of their own events taken out
		// (a unit cost that comes out negative makes an empty row).
		self := func(name string) float64 {
			return L[name] - lp.eventsPerOp[name]*L["sim.schedule_step_ns.d256"]
		}
		b.estimate("sim", td.events, stepCostAt(L, queueLen, lp.sz.simDepth))
		b.estimate("simos.ticks", uint64(float64(nodes)*td.sim.Seconds()), self("simos.idle_node_sim_s_ns"))
		if dispatch {
			share := float64(tracedWall) / float64(wall) // node counters span every slice
			b.estimate("simos.switches", uint64(float64(last.ctxSwitch-first.ctxSwitch)*share), self("simos.compute_sleep_ns"))
			b.estimate("simnet.sends", uint64(float64(last.sends-first.sends)*share), self("simnet.send_recv_ns")/2)
			b.estimate("simnet.reads", td.reads, self("simnet.read_batch32_ns_per_read"))
			b.estimate("wire", td.reads, L["wire.decode_record_ns"])
			b.add("httpsim.localfrac", seams.localFrac.calls.Load(), seams.localFrac.busy(), seams.localFrac.how())
			b.add("core.latest", seams.latest.calls.Load(), seams.latest.busy(), seams.latest.how())
			b.add("core.health", seams.health.calls.Load(), seams.health.busy(), seams.health.how())
			b.estimate("loadbalance.pick", seams.picks,
				L["loadbalance.pick_ns.n64"]-float64(lp.sz.dispatchBackends)*L["httpsim.localfrac_ns.n64"])
		} else {
			b.estimate("simnet", td.reads, self("simnet.read_batch32_ns_per_read"))
			b.estimate("wire", td.reads, L["wire.decode_record_ns"])
		}
		b.close()
		return b
	}
	return nil
}

// stepCostAt interpolates the engine's schedule+step cost between the
// two depths the layers pass measured: a binary heap's cost grows with
// the logarithm of its depth.
func stepCostAt(L map[string]float64, depth, deep int) float64 {
	lo, hi := L["sim.schedule_step_ns.d256"], L["sim.schedule_step_ns"]
	if depth <= 256 || deep <= 256 {
		return lo
	}
	f := math.Log2(float64(depth)/256) / math.Log2(float64(deep)/256)
	return lo + (hi-lo)*math.Min(f, 1)
}

// runScaleOut measures scaleout-8192: the whole pooled scale-out
// experiment, construction and teardown included, as one iteration.
// Set-up is a warm-up pass of the same experiment on a small fleet.
func runScaleOut(cfg *runConfig, o *outcome) error {
	sz := cfg.sz
	run := func(backends int) (*experiments.ScaleData, time.Duration) {
		opts := experiments.Options{Backends: backends, Seed: cfg.seed, Quick: true}
		if sz.scaleoutPooled { // below the fleet size that selects the pooled run by itself
			opts.MaxConns = backends / 4
		}
		t0 := time.Now()
		d := experiments.Scale(opts)
		return d, time.Since(t0)
	}
	warmUp := func() (struct{}, error) {
		if d, _ := run(sz.scaleoutWarm); d.Out == nil {
			return struct{}{}, fmt.Errorf("scale experiment at %d back-ends is not the pooled run", sz.scaleoutWarm)
		}
		return struct{}{}, nil
	}
	if _, err := timedSetup(cfg, o, warmUp); err != nil {
		return err
	}

	var last *experiments.ScaleOutData
	start := time.Now()
	for {
		t0 := time.Now()
		d, wall := run(sz.scaleoutBackends)
		cfg.tr.add("experiments.Scale", 0, t0, wall)
		if d.Out == nil {
			return fmt.Errorf("scale experiment at %d back-ends is not the pooled run", sz.scaleoutBackends)
		}
		last = d.Out
		simMS := last.Phases[len(last.Phases)-1].EndMS
		o.slices = append(o.slices, sliceStat{wall: wall, ops: uint64(int64(last.Backends) * simMS / 1000)})
		o.attempted++
		if d.Failed {
			o.failed++
			o.violate("scale-out violated its own criteria: %s", strings.Join(d.Notes, "; "))
		}
		res := last.Result()
		fp := fingerprint(res.Rows, res.Notes)
		if o.fingerprint != "" && o.fingerprint != fp {
			o.violate("two runs with one seed differ: %s vs %s", o.fingerprint, fp)
		}
		o.fingerprint = fp
		if time.Since(start)+wall > cfg.seconds+cfg.seconds/10 {
			break
		}
	}
	if err := moreSetups(cfg, o, warmUp, func(struct{}) {}); err != nil {
		return err
	}

	var dials, sheds, fences uint64
	for _, p := range last.Phases {
		dials, sheds, fences = dials+p.Dials, sheds+p.Sheds, fences+p.Fences
	}
	o.counts = map[string]float64{
		"connpool.dials":  float64(dials),
		"connpool.sheds":  float64(sheds),
		"connpool.fences": float64(fences),
	}
	simS := float64(last.Phases[len(last.Phases)-1].EndMS) / 1000
	o.notes = append(o.notes, fmt.Sprintf("%d run(s) of %d back-ends, %.2f simulated s each (quick phases): median run %.2f wall s",
		len(o.slices), last.Backends, simS, median(sliceWalls(o.slices))/1e6))
	if !cfg.traced {
		return nil
	}
	runs := uint64(len(o.slices))
	wall, _ := totals(o.slices)
	o.table = func(lp *layerPass) *breakdown {
		// The experiment is one opaque call: nothing can be wrapped,
		// so every row is an estimate and most of the wall time stays
		// unattributed until spans exist inside the program.
		b := newBreakdown(wall)
		L := lp.out
		idleSelf := L["simos.idle_node_sim_s_ns"] - lp.eventsPerOp["simos.idle_node_sim_s_ns"]*L["sim.schedule_step_ns.d256"]
		b.estimate("cluster", runs*uint64(last.Backends), L["cluster.new_ns_per_backend"])
		b.estimate("simos.ticks", runs*uint64(float64(last.Backends)*simS), idleSelf)
		b.estimate("connpool", runs*dials, L["connpool.dial_cycle_ns"])
		b.close()
		return b
	}
	return nil
}
