package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
)

// The run-audit core the fault harnesses (chaos, ha, aa and the generic
// scenario driver) share: one capped violation record, one seeded
// fan-out with a first-seed replay, one verdict renderer, one
// crash/restart tracker and one undisturbed-staleness sampler.

// maxNotes caps how many violation messages a run keeps; the count
// goes on.
const maxNotes = 8

// runAudit is what a fault harness reports per seed besides its table
// row: the seed, the violations found and a replay fingerprint.
type runAudit struct {
	Seed       int64
	Violations []string // the first maxNotes violation messages
	ViolationN int      // total count (Violations is capped)

	Fingerprint string // deterministic run digest (replay check)
}

func (a *runAudit) audit() *runAudit { return a }

func (a *runAudit) violate(format string, args ...any) {
	a.ViolationN++
	if len(a.Violations) < maxNotes {
		a.Violations = append(a.Violations, fmt.Sprintf(format, args...))
	}
}

// audited is a harness point embedding a runAudit.
type audited[P any] interface {
	*P
	audit() *runAudit
}

// sweepSeeds runs point for n seeds base + i·7919 (the stride of
// scenario.Compiled.SeedAt), in parallel unless o.Sequential, stamps
// each point's Seed, and runs the first seed twice: a replay whose
// fingerprint differs is the determinism violation inv.
func sweepSeeds[P any, PP audited[P]](o Options, n int, base int64, inv string, point func(seed int64) P) []P {
	pts := make([]P, n)
	forEach(o, n, func(i int) {
		seed := base + int64(i)*7919
		pts[i] = point(seed)
		a := PP(&pts[i]).audit()
		a.Seed = seed
		if i == 0 {
			replay := point(seed)
			if PP(&replay).audit().Fingerprint != a.Fingerprint {
				a.violate("%s determinism: replay of seed %d diverged", inv, seed)
			}
		}
	})
	return pts
}

// noteVerdict appends every point's violations to r's notes as
// "seed N: ...", then "FAILED: n invariant violation(s)" (marking r
// failed) or, when there were none, pass.
func noteVerdict[P any, PP audited[P]](r *Result, pts []P, pass string) {
	total := 0
	for i := range pts {
		a := PP(&pts[i]).audit()
		total += a.ViolationN
		for _, v := range a.Violations {
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d: %s", a.Seed, v))
		}
	}
	if total > 0 {
		r.Failed = true
		r.Notes = append(r.Notes, fmt.Sprintf("FAILED: %d invariant violation(s)", total))
	} else {
		r.Notes = append(r.Notes, pass)
	}
}

// downSet follows a fault injector's crashes and restarts: which nodes
// are down, since when, and how often each has restarted.
type downSet struct {
	down     map[int]bool
	since    map[int]sim.Time
	restarts map[int]int
}

// trackDown chains a downSet onto in's crash and restart hooks, after
// the cluster's own handling (the injector reads its hooks at fire
// time, so wrapping after ApplyFaults chains correctly).
func trackDown(eng *sim.Engine, in *faults.Injector) *downSet {
	d := &downSet{down: make(map[int]bool), since: make(map[int]sim.Time), restarts: make(map[int]int)}
	prevCrash, prevRestart := in.OnCrash, in.OnRestart
	in.OnCrash = func(node int) {
		if prevCrash != nil {
			prevCrash(node)
		}
		d.down[node], d.since[node] = true, eng.Now()
	}
	in.OnRestart = func(node int) {
		if prevRestart != nil {
			prevRestart(node)
		}
		d.down[node] = false
		d.restarts[node]++
	}
	return d
}

// sampleStaleness ticks every poll and, once a 20-poll warm-up has let
// first records land, calls fn with the record age of every back-end
// that is up and outside every fault window of plan; ok is false for
// one with no record yet. The caller stops the ticker.
func sampleStaleness(c *cluster.Cluster, plan faults.Plan, poll sim.Time, d *downSet, fn func(now sim.Time, b int, age sim.Time, ok bool)) *sim.Ticker {
	warmup := 20 * poll
	return c.Eng.NewTicker(poll, func() {
		now := c.Eng.Now()
		if now < warmup {
			return
		}
		for _, b := range c.Monitor.Backends() {
			if d.down[b] || planDisturbs(plan, poll, b, now) {
				continue
			}
			_, at, ok := c.Monitor.Latest(b)
			fn(now, b, now-at, ok)
		}
	})
}

// planDisturbs reports whether a crash, partition or link window of
// plan (with detection/recovery slack) covers back-end b at time at.
// MR invalidations are pointedly absent: surviving one within the
// staleness SLO is what the failover path is for.
func planDisturbs(plan faults.Plan, poll sim.Time, b int, at sim.Time) bool {
	slack := 10 * poll
	for _, cr := range plan.Crashes {
		if cr.Node == b && at >= cr.At-poll && at < cr.RestartAt+slack {
			return true
		}
	}
	for _, p := range plan.Partitions {
		if intsHave(p.A, b) || intsHave(p.B, b) {
			if at >= p.Start-poll && at < p.End+slack {
				return true
			}
		}
	}
	for _, l := range plan.Links {
		if l.To == b && at >= l.Start-poll && at < l.End+slack {
			return true
		}
	}
	return false
}
