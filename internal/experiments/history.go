package experiments

import (
	"fmt"
	"hash/fnv"
	"math"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

func init() {
	register("history", "history-ring MRs: probe-WR amortization + trend-aware dispatch (256 back-ends)",
		func(o Options) *Result { return History(o).Result() })
}

// histK is the exported ring depth: one one-sided read returns the K
// newest samples, so a monitor polling at K×i sees the same timeline a
// point-record monitor needs K reads at period i to observe.
const histK = 8

// histInterval is the sample granularity i of both coverage modes: the
// point mode polls (and therefore samples) at i; the ring mode samples
// at i on the back-end and polls at K×i.
const histInterval = 10 * sim.Millisecond

// histWRRatio is the asserted probe-WR reduction: point-mode reads
// must be >= this multiple of ring-mode reads at equal coverage.
// Nominally the ratio is exactly histK; the margin absorbs edge reads
// at the window boundaries.
const histWRRatio = 0.9 * histK

// histSamplesPerWR is the asserted amortization of one ring read: each
// posted read must fold at least this many fresh samples on average.
const histSamplesPerWR = 0.75 * histK

// Dispatch-phase knobs: the monitor polls rings of histK samples taken
// every dispatchInterval, and the trend run projects each back-end
// dispatchHorizon ahead (two sweeps — roughly the dispatch latency the
// level-only policy cannot see across).
const (
	dispatchPoll     = 20 * sim.Millisecond
	dispatchInterval = 5 * sim.Millisecond
	dispatchHorizon  = 40 * sim.Millisecond
	dispatchEvery    = 5 * sim.Millisecond // audit pick cadence
)

// histPeakMargin is how much lower the trend run's peak landing index
// must be: ramping back-ends saturate exactly as level-only picks
// land, and the slope term is supposed to steer those picks away.
const histPeakMargin = 0.02

// HistoryCoveragePoint is one coverage mode's run over the same fleet.
type HistoryCoveragePoint struct {
	Mode string // "point" or "ring"

	ProbeWRs     uint64  // one-sided reads posted in the window
	Samples      uint64  // distinct kernel samples observed
	SamplesPerWR float64 // amortization: samples bought per read
	Errors       int
}

// HistoryDispatchPoint is one dispatch run: level-only vs trend-aware
// least-load over the same deterministic ramping workload. Each pick
// is scored by the picked back-end's ground-truth index one horizon
// later — the load a request dispatched now actually lands on.
type HistoryDispatchPoint struct {
	Mode string // "level" or "trend"

	Picks       uint64
	RamperPicks uint64 // picks that landed on a ramping back-end
	TrendPicks  uint64 // picks the slope term reordered
	PeakIdx     float64
	MeanIdx     float64
	Digest      uint64 // FNV-1a over the pick sequence + counters
	Errors      int
}

// HistoryData holds all runs and the pass/fail assessment.
type HistoryData struct {
	Coverage []HistoryCoveragePoint
	Dispatch []HistoryDispatchPoint
	ReplayB  uint64 // digest of the repeated trend run
	WRRatio  float64
	Failed   bool
	Notes    []string
}

// History exercises the e-RDMA-Sync++ history ring end to end:
//
//  1. Coverage — the same fleet monitored twice at equal sample
//     granularity i: point records polled at i vs K-slot rings polled
//     at K×i. One ring read must replace >= histWRRatio point reads
//     while observing the same samples.
//  2. Dispatch — least-load dispatch over a fleet where a minority of
//     back-ends ramp between idle and saturated. The trend-aware
//     policy (slope from ring windows, projected one horizon ahead)
//     must land its picks on lower ground-truth load at the peak than
//     the level-only policy, and must actually reorder some picks.
//  3. Replay — the trend run repeated under the same seed must produce
//     a bit-identical pick sequence and counters.
func History(o Options) *HistoryData {
	n := 256
	if o.Quick {
		n = 64
	}
	if o.Backends > 0 {
		n = o.Backends
	}

	d := &HistoryData{
		Coverage: make([]HistoryCoveragePoint, 2),
		Dispatch: make([]HistoryDispatchPoint, 2),
	}
	forEach(o, 5, func(i int) {
		switch i {
		case 0:
			d.Coverage[0] = historyCoverage(o, n, false)
		case 1:
			d.Coverage[1] = historyCoverage(o, n, true)
		case 2:
			d.Dispatch[0] = historyDispatch(o, n, false)
		case 3:
			d.Dispatch[1] = historyDispatch(o, n, true)
		case 4:
			d.ReplayB = historyDispatch(o, n, true).Digest
		}
	})

	point, ring := d.Coverage[0], d.Coverage[1]
	if ring.ProbeWRs > 0 {
		d.WRRatio = float64(point.ProbeWRs) / float64(ring.ProbeWRs)
	}
	if d.WRRatio < histWRRatio {
		d.fail("probe-WR reduction %.1fx, want >= %.1fx at sample granularity %v",
			d.WRRatio, histWRRatio, histInterval)
	}
	if ring.SamplesPerWR < histSamplesPerWR {
		d.fail("ring reads amortize %.1f samples/WR, want >= %.1f",
			ring.SamplesPerWR, histSamplesPerWR)
	}
	if ring.Samples < point.Samples*8/10 {
		d.fail("ring mode observed %d samples vs point mode's %d — coverage lost, not amortized",
			ring.Samples, point.Samples)
	}
	for _, p := range d.Coverage {
		if p.Errors > 0 {
			d.fail("%s coverage run saw %d probe errors", p.Mode, p.Errors)
		}
	}

	level, trend := d.Dispatch[0], d.Dispatch[1]
	if trend.PeakIdx > level.PeakIdx-histPeakMargin {
		d.fail("trend-aware peak landing index %.3f vs level-only %.3f, want lower by >= %.2f",
			trend.PeakIdx, level.PeakIdx, histPeakMargin)
	}
	if trend.TrendPicks == 0 {
		d.fail("trend run never reordered a pick — the slope signal is dead")
	}
	if level.TrendPicks != 0 {
		d.fail("level-only run counted %d trend picks — trend term leaked into the baseline", level.TrendPicks)
	}
	for _, p := range d.Dispatch {
		if p.Errors > 0 {
			d.fail("%s dispatch run saw %d probe errors", p.Mode, p.Errors)
		}
	}
	if trend.Digest != d.ReplayB {
		d.fail("seeded replay diverged: trend digest %016x vs %016x", trend.Digest, d.ReplayB)
	}
	return d
}

func (d *HistoryData) fail(format string, args ...interface{}) {
	d.Failed = true
	d.Notes = append(d.Notes, "VIOLATION: "+fmt.Sprintf(format, args...))
}

// historyShards/historyBatch: every run uses the sharded, doorbell-
// batched sweep of the scale tier — a sequential 256-probe cycle
// cannot finish inside a 10ms period, which would silently deflate
// the point mode's WR count and stale the dispatch runs' rings.
func historyShards(o Options) int {
	if o.Shards > 0 {
		return o.Shards
	}
	return 4
}

func historyBatch(o Options) int {
	if o.Batch > 0 {
		return o.Batch
	}
	return 32
}

// historyCoverage runs one coverage mode: a monitoring-only
// e-RDMA-Sync fleet with a deterministic flapping minority (so the
// observed samples actually change), counting one-sided reads and
// distinct observed samples over the measured window.
func historyCoverage(o Options, n int, ring bool) HistoryCoveragePoint {
	cfg := cluster.Config{
		Backends:      n,
		Scheme:        core.ERDMASync,
		Poll:          histInterval,
		Seed:          o.seed() + int64(n),
		NoServers:     true,
		MonitorShards: historyShards(o),
		MonitorBatch:  historyBatch(o),
	}
	if ring {
		cfg.Poll = histK * histInterval
		cfg.AgentInterval = histInterval
		cfg.HistoryK = histK
	}
	c := cluster.New(cfg)
	volatile := n / 32
	if volatile < 2 {
		volatile = 2
	}
	startFlappers(c, n, volatile)

	pt := HistoryCoveragePoint{Mode: "point"}
	if ring {
		pt.Mode = "ring"
	}

	// Distinct-sample audit: ring folds are de-duplicated by kernel
	// timestamp inside the trend tracker (RingSamples); the point mode
	// counts records with a fresh timestamp as they arrive.
	var pointSamples uint64
	lastKT := make(map[int]int64)
	if !ring {
		for _, b := range c.Monitor.Backends() {
			b := b
			p := c.Monitor.Probers[b]
			p.OnRecord = func(rec wire.LoadRecord, _ sim.Time) {
				if rec.KTimeNS > lastKT[b] {
					lastKT[b] = rec.KTimeNS
					pointSamples++
				}
			}
		}
	}

	warm := 300 * sim.Millisecond
	dur := 2 * sim.Second
	if o.Quick {
		dur = sim.Second
	}
	c.Eng.RunUntil(warm)
	reads0 := c.FNIC.RDMAReads
	samples0, errs0 := historyProbeTotals(c)
	pointSamples = 0
	c.Eng.RunUntil(warm + dur)

	pt.ProbeWRs = c.FNIC.RDMAReads - reads0
	samples1, errs1 := historyProbeTotals(c)
	pt.Errors = errs1 - errs0
	if ring {
		pt.Samples = samples1 - samples0
	} else {
		pt.Samples = pointSamples
	}
	if pt.ProbeWRs > 0 {
		pt.SamplesPerWR = float64(pt.Samples) / float64(pt.ProbeWRs)
	}
	return pt
}

// historyProbeTotals sums the fleet's ring-fold counters in backend
// order (deterministic — never iterate the prober map directly).
func historyProbeTotals(c *cluster.Cluster) (samples uint64, errs int) {
	for _, b := range c.Monitor.Backends() {
		p := c.Monitor.Probers[b]
		samples += p.RingSamples
		errs += p.Errors
	}
	return samples, errs
}

// startBaseline gives every non-ramping back-end a steady synthetic
// load: one CPU-bound task plus one light duty-cycle task, yielding a
// stable index around 0.22 that ramping back-ends dip below and climb
// through. Phases are staggered by id; no randomness.
func startBaseline(c *cluster.Cluster, rampers map[int]bool) {
	for b := 1; b <= len(c.Backends); b++ {
		if rampers[b] {
			continue
		}
		node := c.Backends[b-1]
		node.Spawn("base-busy", func(tk *simos.Task) {
			var cycle func()
			cycle = func() { tk.Compute(10*sim.Millisecond, cycle) }
			cycle()
		})
		phase := sim.Time(b%10) * sim.Millisecond
		node.Spawn("base-duty", func(tk *simos.Task) {
			var cycle func()
			cycle = func() {
				tk.Compute(2*sim.Millisecond, func() { tk.Sleep(8*sim.Millisecond, cycle) })
			}
			tk.Sleep(phase, cycle)
		})
	}
}

// startRampers drives the ramping minority: each ramper alternates
// 300ms fully idle with 300ms of two CPU-bound tasks. The kernel's
// 100ms utilisation window turns each edge into a linear ramp of the
// monitored index (0 -> ~0.375 and back), which is exactly the shape
// the trend term exists for: while the index is still below the
// baseline the level-only policy keeps dispatching onto a back-end
// that will have saturated by the time the requests land.
func startRampers(c *cluster.Cluster, n int) map[int]bool {
	count := n / 32
	if count < 2 {
		count = 2
	}
	ids := make(map[int]bool, count)
	for v := 0; v < count; v++ {
		b := 1 + v*(n/count)
		ids[b] = true
		node := c.Backends[b-1]
		for t := 0; t < 2; t++ {
			node.Spawn("ramper", func(tk *simos.Task) {
				var cycle func()
				cycle = func() {
					tk.Sleep(300*sim.Millisecond, func() {
						tk.Compute(300*sim.Millisecond, cycle)
					})
				}
				cycle()
			})
		}
	}
	return ids
}

// historyDispatch runs one dispatch mode over the deterministic
// ramping fleet, scoring every pick by the picked back-end's
// ground-truth weighted index one horizon later.
func historyDispatch(o Options, n int, trend bool) HistoryDispatchPoint {
	cfg := cluster.Config{
		Backends:      n,
		Scheme:        core.ERDMASync,
		Poll:          dispatchPoll,
		AgentInterval: dispatchInterval,
		HistoryK:      histK,
		Seed:          o.seed() + 7*int64(n),
		NoServers:     true,
		Policy:        cluster.PolicyLeastLoad,
		MonitorShards: historyShards(o),
		MonitorBatch:  historyBatch(o),
	}
	if trend {
		cfg.TrendHorizon = dispatchHorizon
	}
	c := cluster.New(cfg)
	rampers := startRampers(c, n)
	startBaseline(c, rampers)

	pt := HistoryDispatchPoint{Mode: "level"}
	if trend {
		pt.Mode = "trend"
	}
	wll := c.Policy.(*loadbalance.WeightedLeastLoad)
	weights := core.WeightsFor(core.ERDMASync)

	warm := 600 * sim.Millisecond
	dur := 2400 * sim.Millisecond
	if o.Quick {
		dur = 1200 * sim.Millisecond
	}
	c.Eng.RunUntil(warm)

	h := fnv.New64a()
	var sum float64
	var landed uint64
	audit := c.Eng.NewTicker(dispatchEvery, func() {
		b := c.Policy.Pick()
		var pick [2]byte
		pick[0], pick[1] = byte(b), byte(b>>8)
		h.Write(pick[:])
		pt.Picks++
		if rampers[b] {
			pt.RamperPicks++
		}
		c.Eng.After(dispatchHorizon, func() {
			rec := core.RecordFromSnapshot(c.Backends[b-1].K.Snapshot(), 0)
			idx := weights.IndexOf(&rec)
			if idx > pt.PeakIdx {
				pt.PeakIdx = idx
			}
			sum += idx
			landed++
		})
	})
	c.Eng.RunUntil(warm + dur)
	audit.Stop()
	// Let in-flight landing probes (scheduled before the cutoff) score.
	c.Eng.RunUntil(warm + dur + dispatchHorizon)

	if landed > 0 {
		pt.MeanIdx = sum / float64(landed)
	}
	pt.TrendPicks = wll.TrendPicks
	samples, errs := historyProbeTotals(c)
	pt.Errors = errs

	// Replay digest: pick sequence plus every counter that should be
	// seed-deterministic.
	for _, v := range []uint64{pt.Picks, pt.RamperPicks, pt.TrendPicks,
		math.Float64bits(pt.PeakIdx), math.Float64bits(pt.MeanIdx),
		c.FNIC.RDMAReads, samples} {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	pt.Digest = h.Sum64()
	return pt
}

// Result renders both phases and the asserted contracts.
func (d *HistoryData) Result() *Result {
	r := &Result{
		ID:    "history",
		Title: "History-ring MRs: one read replaces K point probes; trend-aware dispatch dodges ramps",
		Columns: []string{"phase", "mode", "probe WRs", "samples", "samples/WR",
			"peak idx", "mean idx", "trend picks", "errors"},
		Failed: d.Failed,
	}
	for _, p := range d.Coverage {
		r.Rows = append(r.Rows, []string{
			"coverage", p.Mode,
			fmt.Sprintf("%d", p.ProbeWRs),
			fmt.Sprintf("%d", p.Samples),
			f1(p.SamplesPerWR),
			"-", "-", "-",
			fmt.Sprintf("%d", p.Errors),
		})
	}
	for _, p := range d.Dispatch {
		r.Rows = append(r.Rows, []string{
			"dispatch", p.Mode, "-", "-", "-",
			fmt.Sprintf("%.3f", p.PeakIdx),
			fmt.Sprintf("%.3f", p.MeanIdx),
			fmt.Sprintf("%d", p.TrendPicks),
			fmt.Sprintf("%d", p.Errors),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("probe-WR reduction: %.1fx (criterion: >= %.1fx; one %d-slot ring read per sweep replaces %d point probes at sample granularity %v)",
			d.WRRatio, histWRRatio, histK, histK, histInterval),
		fmt.Sprintf("each dispatch pick scored by the picked back-end's ground-truth index %v later — the load the request actually lands on", dispatchHorizon),
		fmt.Sprintf("seeded replay: trend-run digest %016x reproduced bit-identically", d.Dispatch[1].Digest))
	r.Notes = append(r.Notes, d.Notes...)
	return r
}
