package main

import (
	"fmt"
	"io"
	"time"

	"rdmamon/internal/sim"
)

// sizes holds every input size of the benchmark, so the full-scale
// benchmark and the tier-1 smoke test (-scale tiny) run the same code.
type sizes struct {
	sweepBackends int
	sweepWarm     sim.Time // simulated warm-up inside each timed set-up
	sweepSettle   sim.Time // simulated time the measured instance has run before the first slice

	dispatchBackends int
	dispatchClients  int
	dispatchWarm     sim.Time
	dispatchSettle   sim.Time

	slice    sim.Time // one iteration of the cluster workloads
	fpSlices int      // slices in the fixed window the fingerprint and exact counts cover

	scaleoutBackends int
	scaleoutWarm     int // back-ends of the warm-up pass timed as set-up
	scaleoutPooled   bool

	liveWarmIters  int // client iterations inside each timed set-up
	mixedWarmIters int
	liveSlice      time.Duration

	setupReps int

	// layers pass
	simDepth     int
	idleNodes    int
	pickSizes    []pickSize
	propBackends int
	layerBudget  time.Duration
}

type pickSize struct {
	backends int
	label    string
}

var fullSizes = sizes{
	sweepBackends: 8192, sweepWarm: 250 * sim.Millisecond, sweepSettle: sim.Second,
	dispatchBackends: 64, dispatchClients: 1536, dispatchWarm: sim.Second, dispatchSettle: 2 * sim.Second,
	slice: 100 * sim.Millisecond, fpSlices: 10,
	scaleoutBackends: 8192, scaleoutWarm: 1024,
	liveWarmIters: 20000, mixedWarmIters: 1000, liveSlice: 250 * time.Millisecond,
	setupReps: 3,
	simDepth:  sweepDepth, idleNodes: 1024,
	pickSizes:    []pickSize{{8, "n8"}, {64, "n64"}, {256, "n256"}},
	propBackends: 64,
	layerBudget:  60 * time.Millisecond,
}

// tinySizes keeps every code path and finishes in a few seconds. The
// metric names stay those of the full scale (pick_ns.n256 measures 32
// back-ends here): the smoke test checks plumbing, not values.
var tinySizes = sizes{
	sweepBackends: 256, sweepWarm: 50 * sim.Millisecond, sweepSettle: 100 * sim.Millisecond,
	dispatchBackends: 16, dispatchClients: 128, dispatchWarm: 100 * sim.Millisecond, dispatchSettle: 200 * sim.Millisecond,
	slice: 20 * sim.Millisecond, fpSlices: 4,
	scaleoutBackends: 256, scaleoutWarm: 64, scaleoutPooled: true,
	liveWarmIters: 200, mixedWarmIters: 20, liveSlice: 50 * time.Millisecond,
	setupReps: 2,
	simDepth:  1024, idleNodes: 64,
	pickSizes:    []pickSize{{8, "n8"}, {16, "n64"}, {32, "n256"}},
	propBackends: 16,
	layerBudget:  2 * time.Millisecond,
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sz       sizes
	tr       *tracer // nil unless traced
}

// sliceStat is one iteration-sized piece of the measured window.
type sliceStat struct {
	wall   time.Duration
	ops    uint64
	traced bool
}

// outcome is what one workload run produced, before it is rendered as
// end-to-end or per-layer metrics.
type outcome struct {
	setups            []time.Duration // one per timed set-up
	slices            []sliceStat
	attempted, failed uint64
	violations        []string // correctness check failures
	fingerprint       string   // sim workloads: must repeat exactly for one seed
	rssMB             float64

	counts map[string]float64 // workload-derived per-layer metrics
	// table builds the breakdown once the layers pass has supplied
	// unit costs; nil on an untraced run.
	table func(lp *layerPass) *breakdown
	notes []string
}

func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 8 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// timedSetup builds one instance under the clock. The first call of a
// run builds the instance that is measured, in a heap no earlier
// instance has used: measuring the third of three set-ups doubled the
// run-to-run spread of sweep-8192, whose speed depends on how its
// 100 MB of small objects are laid out among the garbage.
func timedSetup[T any](cfg *runConfig, o *outcome, build func() (T, error)) (T, error) {
	end := cfg.tr.begin("setup", 0)
	t0 := time.Now()
	inst, err := build()
	if err == nil {
		o.setups = append(o.setups, time.Since(t0))
		end()
	}
	return inst, err
}

// moreSetups closes the measured window: it reads the process's peak
// memory unless the workload already has, then repeats the set-up
// until setupReps have been timed, discarding each instance. The
// median of the repetitions is the workload's set-up time; a traced
// run reports none and skips them.
func moreSetups[T any](cfg *runConfig, o *outcome, build func() (T, error), discard func(T)) error {
	if o.rssMB == 0 {
		o.rssMB = peakRSSMB()
	}
	for !cfg.traced && len(o.setups) < cfg.sz.setupReps {
		inst, err := timedSetup(cfg, o, build)
		if err != nil {
			return err
		}
		discard(inst)
	}
	return nil
}

func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// pick returns the traced or the untraced slices. End-to-end numbers
// use untraced ones only: all of an untraced run, every other slice of
// a traced one.
func (o *outcome) pick(traced bool) []sliceStat {
	var out []sliceStat
	for _, s := range o.slices {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func sliceWalls(ss []sliceStat) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.wall) / 1e3 // us
	}
	return out
}

func sliceRates(ss []sliceStat) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.ops) / s.wall.Seconds()
	}
	return out
}

func totals(ss []sliceStat) (wall time.Duration, ops uint64) {
	for _, s := range ss {
		wall += s.wall
		ops += s.ops
	}
	return
}

// endToEndValues computes the end-to-end metrics and, for -compare,
// each one's in-run quartiles over slices (set-ups for setup_s).
func (o *outcome) endToEndValues() (vals map[string]float64, spread map[string][2]float64, n map[string]int) {
	ss := o.pick(false)
	vals, spread, n = map[string]float64{}, map[string][2]float64{}, map[string]int{}

	q1, med, q3 := quartiles(toSeconds(o.setups))
	vals["setup_s"], spread["setup_s"], n["setup_s"] = med, [2]float64{q1, q3}, len(o.setups)

	wall, ops := totals(ss)
	vals["ops_per_s"] = float64(ops) / wall.Seconds()
	q1, _, q3 = quartiles(sliceRates(ss))
	spread["ops_per_s"], n["ops_per_s"] = [2]float64{q1, q3}, len(ss)

	vals["peak_rss_mb"] = o.rssMB // one reading: no in-run spread
	return
}

// traceOverhead is traced ÷ untraced − 1 on the cost of an operation:
// the median slice of each kind, from one traced run.
func (o *outcome) traceOverhead() float64 {
	traced, untraced := o.pick(true), o.pick(false)
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(sliceRates(untraced))/median(sliceRates(traced)) - 1
}

func printMetrics(w io.Writer, title string, specs []metricSpec, vals map[string]float64) {
	fmt.Fprintln(w, title)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", s.Name, vals[s.Name], s.Unit)
	}
}
