package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

func init() {
	register("scale", "batched/sharded probe engine: cycle time vs fleet size",
		func(o Options) *Result { return Scale(o).Result() })
}

// scalePoll is the poll period every configuration runs at — the
// speedup claim is about sweep time at EQUAL poll period, so it is a
// constant, not a knob.
const scalePoll = 10 * sim.Millisecond

// ScalePoint is one (backends, shards, batch) cell of the sweep.
type ScalePoint struct {
	Backends, Shards, Batch int

	CycleP50Us, CycleMaxUs float64 // per-shard sweep duration
	ProbeP50Us, ProbeP99Us float64 // per-probe round trip (all back-ends)
	StaleP99Us             float64 // record age at arrival vs kernel stamp
	Cycles                 uint64  // completed sweeps in the window
	fleetCheck

	Speedup float64 // sequential CycleP50 / this CycleP50, same fleet
}

// ScaleData holds the scale sweep and its pass/fail assessment. Runs
// past the pooled threshold (see scaleOutMin) carry the scale-out data
// instead of sweep points.
type ScaleData struct {
	Points []ScalePoint
	Out    *ScaleOutData
	violations
}

// Scale measures how the probe engine's sweep time grows with the
// fleet: the sequential monitor (Shards=1, Batch=1) against doorbell
// batching alone and batching+sharding, at one fixed poll period. The
// non-quick run asserts the tentpole criterion: at the largest fleet
// the batched/sharded engine's median sweep is >= 4x faster than the
// sequential monitor's. Every run asserts the fleet check everywhere:
// zero probe errors, zero per-transport sequence regressions and a
// record for every back-end after warm-up.
func Scale(o Options) *ScaleData {
	if o.Backends >= scaleOutMin || o.MaxConns > 0 {
		// Fleet sizes past the sweep's one-QP-per-backend assumption
		// (or an explicit connection budget) run the pooled scale-out
		// instead.
		out := ScaleOut(o)
		return &ScaleData{Out: out, violations: out.violations}
	}
	backends := []int{8, 64, 256, 512}
	if o.Quick {
		backends = []int{8, 64, 128}
	}
	if o.Backends > 0 {
		backends = []int{o.Backends}
	}
	type cfg struct{ shards, batch int }
	cfgs := []cfg{{1, 1}, {1, 32}, {4, 32}}
	if o.Shards > 0 || o.Batch > 0 {
		s, b := sweepEngine(o, 4)
		cfgs = []cfg{{1, 1}, {s, b}}
	}

	d := &ScaleData{Points: make([]ScalePoint, len(backends)*len(cfgs)), violations: fleetViolations()}
	forEach(len(d.Points), func(i int) {
		n := backends[i/len(cfgs)]
		c := cfgs[i%len(cfgs)]
		d.Points[i] = scalePoint(o, n, c.shards, c.batch)
	})

	// Speedups: each cell vs the sequential cell of the same fleet size
	// (the first config in every group).
	for gi := 0; gi < len(backends); gi++ {
		seq := d.Points[gi*len(cfgs)]
		for ci := 0; ci < len(cfgs); ci++ {
			p := &d.Points[gi*len(cfgs)+ci]
			if p.CycleP50Us > 0 {
				p.Speedup = seq.CycleP50Us / p.CycleP50Us
			}
		}
	}

	for _, p := range d.Points {
		run := fmt.Sprintf("n=%d s=%d b=%d", p.Backends, p.Shards, p.Batch)
		p.assess(&d.violations, run)
		if p.Cycles == 0 {
			d.violate("%s completed no sweeps", run)
		}
	}
	if last := d.Points[len(d.Points)-1]; !o.Quick && last.Speedup < 4 {
		d.violate("speedup %.1fx at %d back-ends (s=%d b=%d), want >= 4x",
			last.Speedup, last.Backends, last.Shards, last.Batch)
	}
	return d
}

// scalePoint runs one configuration: a monitoring-only cluster (no web
// servers — this experiment measures the probe engine itself) under
// RDMA-Sync and the fleet check, warmed up, then measured.
func scalePoint(o Options, n, shards, batch int) ScalePoint {
	c := cluster.New(cluster.Config{
		Backends:      n,
		Scheme:        core.RDMASync,
		Poll:          scalePoll,
		Seed:          o.seed() + int64(n)*100 + int64(shards)*10 + int64(batch),
		NoServers:     true,
		MonitorShards: shards,
		MonitorBatch:  batch,
	})
	pt := ScalePoint{Backends: n, Shards: shards, Batch: batch}

	var probeLat, stale metrics.Sample
	pt.watch(c, func(_ int, rec wire.LoadRecord, at sim.Time) {
		stale.Add(float64((at - sim.Time(rec.KTimeNS)) / sim.Microsecond))
	})

	warm := 200 * sim.Millisecond
	dur := 2 * sim.Second
	if o.Quick {
		dur = 500 * sim.Millisecond
	}
	pt.warm(c, warm)
	// Reset the warm-up's samples and counters; measure steady state.
	c.Monitor.CycleTime = metrics.Sample{}
	stale = metrics.Sample{}
	cycles0 := c.Monitor.Cycles
	for _, p := range c.Monitor.Probers {
		p.Latency = &metrics.Sample{}
	}
	c.Eng.RunUntil(warm + dur)

	for _, p := range c.Monitor.Probers {
		probeLat.AddAll(p.Latency)
	}
	pt.done(c)
	pt.CycleP50Us = c.Monitor.CycleTime.Percentile(50)
	pt.CycleMaxUs = c.Monitor.CycleTime.Max()
	pt.ProbeP50Us = probeLat.Percentile(50)
	pt.ProbeP99Us = probeLat.Percentile(99)
	pt.StaleP99Us = stale.Percentile(99)
	pt.Cycles = c.Monitor.Cycles - cycles0
	return pt
}

// Result renders the sweep as a table (or delegates to the pooled
// scale-out's phase table).
func (d *ScaleData) Result() *Result {
	if d.Out != nil {
		return d.Out.Result()
	}
	r := &Result{
		ID:    "scale",
		Title: "Probe-engine scaling: sweep time vs back-ends x shards x batch (10ms poll, RDMA-Sync)",
		Columns: []string{"backends", "shards", "batch", "cycle p50 us", "cycle max us",
			"probe p50 us", "probe p99 us", "stale p99 us", "sweeps", "speedup"},
		Failed: d.Failed,
	}
	for _, p := range d.Points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Backends),
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Batch),
			f1(p.CycleP50Us),
			f1(p.CycleMaxUs),
			f1(p.ProbeP50Us),
			f1(p.ProbeP99Us),
			f1(p.StaleP99Us),
			fmt.Sprintf("%d", p.Cycles),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	r.Notes = append(r.Notes,
		"expected shape: sequential cycle time grows ~linearly with back-ends; batched+sharded grows sublinearly",
		"criterion (non-quick): >= 4x cycle-time speedup at the largest fleet, zero errors, zero seq regressions")
	r.Notes = append(r.Notes, d.Notes...)
	return r
}
