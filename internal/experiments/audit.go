package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// The run checks the harnesses share. The fault harnesses (chaos, ha,
// aa and the scenario driver) get a capped violation record, a seeded
// fan-out with a first-seed replay, a verdict renderer, a crash tracker
// and an undisturbed-staleness sampler; the fleet harnesses (hybrid,
// history, scale, scale-out) a verdict, a sweep-engine default and an
// effective-staleness sampler. Chaos, hybrid and scale share the I4
// sequence audit.

// verdict is a fleet harness's pass/fail assessment.
type verdict struct {
	Failed bool
	Notes  []string
}

// fail marks the run failed and records a "VIOLATION: " note.
func (v *verdict) fail(format string, args ...any) {
	v.Failed = true
	v.Notes = append(v.Notes, "VIOLATION: "+fmt.Sprintf(format, args...))
}

// sweepEngine returns the shards and doorbell batch of a fleet
// harness's sweep: its default shards with 32-read batches, or the
// -shards/-batch pins.
func sweepEngine(o Options, shards int) (int, int) {
	batch := 32
	if o.Shards > 0 {
		shards = o.Shards
	}
	if o.Batch > 0 {
		batch = o.Batch
	}
	return shards, batch
}

// watchSeqs installs the I4 audit on every prober of c: a back-end's
// sequence numbers never regress on one transport within one agent
// incarnation. restarts[b] counts b's restarts (nil: none), and a new
// incarnation clears b's watermarks. regress is called on each
// regression; also, if not nil, sees every record.
func watchSeqs(c *cluster.Cluster, restarts map[int]int, regress func(b int, tr core.Transport, seq, last uint32), also func(b int, rec wire.LoadRecord, at sim.Time)) {
	for _, b := range c.Monitor.Backends() {
		p := c.Monitor.Probers[b]
		var last map[core.Transport]uint32
		epoch := 0
		p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			if last == nil || epoch != restarts[b] {
				epoch, last = restarts[b], make(map[core.Transport]uint32)
			}
			tr := p.LastTransport
			if l, ok := last[tr]; ok && rec.Seq < l {
				regress(b, tr, rec.Seq, l)
			}
			last[tr] = rec.Seq
			if also != nil {
				also(b, rec, at)
			}
		}
	}
}

// effStale samples effective staleness against ground truth (the
// paper's §5.1.3 trick: a zero-cost direct kernel snapshot). A cached
// record is stale only while it is wrong: a decayed poll period that
// keeps an old record whose load index still matches truth is old,
// not stale.
type effStale struct {
	c         *cluster.Cluster
	threshold float64    // LoadDelta at or below which the cache is right
	since     sim.Time   // the start of the audit
	accurate  []sim.Time // per back-end: when its cache last matched truth
}

func newEffStale(c *cluster.Cluster, threshold float64, since sim.Time) *effStale {
	return &effStale{c: c, threshold: threshold, since: since, accurate: make([]sim.Time, len(c.Backends)+1)}
}

// sample returns back-end b's effective staleness, min(age, now −
// max(lastAccurate, since)), and its record age; ok is false while b
// has no record.
func (e *effStale) sample(b int) (eff, age sim.Time, ok bool) {
	now := e.c.Eng.Now()
	truth := core.RecordFromSnapshot(e.c.Backends[b-1].K.Snapshot(), 0)
	cached, at, ok := e.c.Monitor.Latest(b)
	if !ok {
		return 0, 0, false
	}
	if core.LoadDelta(&truth, cached) <= e.threshold {
		e.accurate[b] = now
	}
	age = now - at
	return min(age, now-max(e.accurate[b], e.since)), age, true
}

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
