package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

func init() {
	register("ha", "warm-standby front-ends: leased primaryship and epoch fencing under front-end faults",
		func(o Options) *Result { return HA(o).Result() })
}

// haTakeoverSlack is the allowance, in claim check cycles, added on top
// of ExpireAfter for the H3 bound: the deposed holder's last renewal
// can land up to one cycle before the fault, the follower observes it
// up to one cycle later, the winning CAS takes a network round trip,
// and heavy dispatch traffic on the standby's node can delay its claim
// task by a few more cycles. EXPERIMENTS.md derives the number.
const haTakeoverSlack = 8

// HAPoint is one seed's run of a 3-replica HA cluster under a fault
// plan that includes front-end crashes, freezes and witness partitions.
type HAPoint struct {
	Seed                   int64
	FECrash, FEFrz, FEPart int // plan shape (front-end faults)

	Epochs        int     // claim epochs acquired across the fleet
	TakeoverMaxMS float64 // slowest measured primary-fault -> new-epoch handoff
	Fenced        uint64  // requests refused by the claim fence
	NotPrimary    uint64  // fenced replies observed at the clients
	Retargets     uint64  // client rotations to another replica
	Served        uint64  // requests completed end to end
	BackendTasks  int     // agent-side tasks (must stay 0 under RDMA-Sync)

	Violations []string
	ViolationN int

	Fingerprint string // deterministic run digest (H5 replay check)
}

// HAData holds the per-seed results.
type HAData struct {
	Points []HAPoint
}

// HA runs the front-end high-availability harness: for each seed it
// builds a 3-replica RDMA-Sync cluster (every replica shadow-probing
// all back-ends, one primary fenced by the one-shard claim
// dispatching), applies a randomized fault plan extended with front-end
// crashes, freezes and witness partitions, drives RUBiS load, and
// checks:
//
//	H1  at most one replica holds a valid claim epoch at any instant
//	    (validity intervals from acquire/renew/depose events must not
//	    overlap across replicas — no split brain);
//	H2  no request is ever routed by a replica whose claim is invalid
//	    at that instant (the epoch fence holds even for a deposed or
//	    frozen-then-thawed primary);
//	H3  a fault hitting the current primary yields a new epoch within
//	    ExpireAfter plus a bounded number of check cycles (warm
//	    standbys make takeover fast);
//	H4  claim epochs are globally monotone (each acquisition uses a
//	    strictly larger epoch than every earlier one);
//	H5  a fixed seed replays bit-identically (checked for the first
//	    seed by running it twice);
//	H6  back-end agents run zero tasks throughout — standby monitoring
//	    rides the same one-sided reads and costs the monitored nodes
//	    nothing.
func HA(o Options) *HAData {
	cp, err := scenario.BuiltinHA().Compile(o.Quick)
	if err != nil {
		// The builtin is covered by the golden tests; a compile failure
		// here is a programming error, not an input error.
		panic(err)
	}
	return haScenario(cp, o)
}

// haScenario runs the HA invariant checker over a compiled scenario —
// the one driver behind both the legacy `-exp ha` flags (via
// BuiltinHA, bit-identical plans) and `-scenario` files with
// `checks: ha`.
func haScenario(cp *scenario.Compiled, o Options) *HAData {
	n := o.Seeds
	if n <= 0 {
		n = cp.Points(0)
	}
	base := cp.BaseSeed(o.Seed)
	d := &HAData{Points: make([]HAPoint, n)}
	forEach(o, n, func(i int) {
		seed := cp.SeedAt(base, i)
		pt := haPoint(cp, seed)
		if i == 0 {
			replay := haPoint(cp, seed)
			if replay.Fingerprint != pt.Fingerprint {
				pt.Violations = append(pt.Violations,
					fmt.Sprintf("H5 determinism: replay of seed %d diverged", seed))
				pt.ViolationN++
			}
		}
		d.Points[i] = pt
	})
	return d
}

func haPoint(cp *scenario.Compiled, seed int64) HAPoint {
	horizon := cp.Horizon

	// Failover (the socket standby) is deliberately off in the builtin:
	// every probe in this experiment is one-sided, so H6 measures the
	// pure cost of two extra shadow monitors — which must be zero.
	c := cluster.New(cp.ClusterConfig(seed, ""))
	plan := cp.Plan(seed)
	c.ApplyFaults(plan)

	ck := newHAChecker(c, plan)
	ck.install()

	pool := c.StartRUBiS(cp.Clients, cp.Think, seed+11)
	c.Run(horizon)

	ck.checkOverlaps()
	ck.checkTakeovers(horizon)
	return ck.point(seed, pool)
}

// haEpoch is one replica's validity interval under one epoch: opened by
// an acquire, extended by renewals, closed by a deposal (or left at the
// last renewal's validUntil if the holder died holding it).
type haEpoch struct {
	replica    int
	node       int
	epoch      uint16
	start, end sim.Time
}

// haFault is a front-end fault instant with the primaryship observed
// just before it landed.
type haFault struct {
	at      sim.Time
	kind    string
	victim  int
	primary int // node ID of the pre-fault primary, -1 if none
}

// haChecker audits one run against invariants H1-H4 and H6.
type haChecker struct {
	c     *cluster.Cluster
	plan  faults.Plan
	claim core.ClaimConfig

	intervals []*haEpoch       // all validity intervals, in acquire order
	open      map[int]*haEpoch // replica index -> currently open interval
	lastEpoch uint16

	faults []haFault

	// Dispatch counters survive replica restarts: the current dispatcher
	// per replica, plus totals retired when a crash replaced one.
	disp                         map[int]*httpsim.Dispatcher
	retiredRouted, retiredFenced uint64

	takeoverMax sim.Time
	violations  []string
	violationN  int
}

func newHAChecker(c *cluster.Cluster, plan faults.Plan) *haChecker {
	return &haChecker{
		c:     c,
		plan:  plan,
		claim: c.Cfg.Claim, // cluster.New resolved the defaults
		open:  make(map[int]*haEpoch),
		disp:  make(map[int]*httpsim.Dispatcher),
	}
}

func (ck *haChecker) violate(format string, args ...any) {
	ck.violationN++
	if len(ck.violations) < 8 {
		ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
	}
}

func (ck *haChecker) install() {
	for _, r := range ck.c.FrontEnds {
		ck.hook(r)
	}
	// A restarted replica comes back with fresh dispatcher and claim
	// objects; retire the dead dispatcher's counters and re-hook.
	ck.c.OnReplicaRestart = func(r *cluster.Replica) {
		if old := ck.disp[r.Index]; old != nil {
			ck.retiredRouted += old.Routed
			ck.retiredFenced += old.Fenced
		}
		ck.hook(r)
	}

	// H3 observers: capture who is primary 1ns before each front-end
	// fault lands (the injector's events were scheduled first, so an
	// observer at the fault instant would run after it).
	fes := make(map[int]bool)
	for _, id := range ck.c.FrontEndIDs() {
		fes[id] = true
	}
	observe := func(at sim.Time, kind string, victim int) {
		ck.c.Eng.After(at-1*sim.Nanosecond, func() {
			f := haFault{at: at, kind: kind, victim: victim, primary: -1}
			if p := ck.c.Primary(); p != nil {
				f.primary = p.Node.ID
			}
			ck.faults = append(ck.faults, f)
		})
	}
	for _, cr := range ck.plan.Crashes {
		if fes[cr.Node] {
			observe(cr.At, "crash", cr.Node)
		}
	}
	for _, fz := range ck.plan.Freezes {
		if fes[fz.Node] {
			observe(fz.At, "freeze", fz.Node)
		}
	}
	for _, pa := range ck.plan.Partitions {
		if len(pa.A) == 1 && fes[pa.A[0]] && len(pa.B) == 1 && pa.B[0] == ck.c.Witness.ID {
			observe(pa.Start, "partition", pa.A[0])
		}
	}
}

// hook installs the claim observers and the H2 route audit on one
// replica's (possibly fresh) objects.
func (ck *haChecker) hook(r *cluster.Replica) {
	idx, node := r.Index, r.Node.ID
	l := r.ClaimMgr.Claims[0]
	ck.disp[idx] = r.Dispatcher

	l.OnAcquire = func(_, epoch uint16, now, validUntil sim.Time) {
		if epoch <= ck.lastEpoch {
			ck.violate("H4 epoch: replica %d acquired epoch %d after epoch %d was taken",
				idx, epoch, ck.lastEpoch)
		} else {
			ck.lastEpoch = epoch
		}
		e := &haEpoch{replica: idx, node: node, epoch: epoch, start: now, end: validUntil}
		ck.open[idx] = e
		ck.intervals = append(ck.intervals, e)
	}
	l.OnRenew = func(_, epoch uint16, now, validUntil sim.Time) {
		if e := ck.open[idx]; e != nil && validUntil > e.end {
			e.end = validUntil
		}
	}
	l.OnDepose = func(_, epoch uint16, now sim.Time) {
		if e := ck.open[idx]; e != nil {
			if e.end > now {
				e.end = now
			}
			ck.open[idx] = nil
		}
	}

	// H2: every routing decision must happen under a valid claim. The
	// fence itself is what should make this true; auditing at OnRoute
	// (after the fence, before the forward) catches any leak.
	r.Dispatcher.OnRoute = func(int) {
		if !l.Valid(ck.c.Eng.Now()) {
			ck.violate("H2 fence: replica %d routed a request without a valid claim at %v",
				idx, ck.c.Eng.Now())
		}
	}
}

// checkOverlaps runs H1 after the run: no two validity intervals from
// different replicas may overlap. Intervals are conservative — a lapsed
// primary that later revalidated keeps one contiguous interval, which
// is only possible when nobody else acquired in between.
func (ck *haChecker) checkOverlaps() {
	for i, a := range ck.intervals {
		for _, b := range ck.intervals[i+1:] {
			if a.replica == b.replica {
				continue
			}
			if a.start < b.end && b.start < a.end {
				ck.violate("H1 split-brain: replica %d epoch %d [%v, %v] overlaps replica %d epoch %d [%v, %v]",
					a.replica, a.epoch, a.start, a.end, b.replica, b.epoch, b.start, b.end)
			}
		}
	}
}

// checkTakeovers runs H3 after the run: every front-end fault that hit
// the then-primary must be followed by a new epoch within ExpireAfter
// plus haTakeoverSlack check cycles. Faults whose window is truncated
// by the horizon are skipped.
func (ck *haChecker) checkTakeovers(horizon sim.Time) {
	bound := ck.claim.ExpireAfter + haTakeoverSlack*ck.claim.CheckEvery
	for _, f := range ck.faults {
		if f.primary < 0 || f.primary != f.victim {
			continue // fault missed the primary: no handoff owed
		}
		if f.at+bound > horizon {
			continue
		}
		var won sim.Time
		found := false
		for _, e := range ck.intervals {
			if e.start > f.at {
				won, found = e.start, true
				break
			}
		}
		if !found || won-f.at > bound {
			ck.violate("H3 takeover: %s of primary node %d at %v, no new epoch within %v",
				f.kind, f.victim, f.at, bound)
			continue
		}
		if lat := won - f.at; lat > ck.takeoverMax {
			ck.takeoverMax = lat
		}
	}
}

func (ck *haChecker) point(seed int64, pool *workload.ClientPool) HAPoint {
	feCrash := 0
	for _, cr := range ck.plan.Crashes {
		for _, id := range ck.c.FrontEndIDs() {
			if cr.Node == id {
				feCrash++
			}
		}
	}
	fePart := 0
	for _, pa := range ck.plan.Partitions {
		if len(pa.B) == 1 && pa.B[0] == ck.c.Witness.ID {
			fePart++
		}
	}
	pt := HAPoint{
		Seed:    seed,
		FECrash: feCrash, FEFrz: len(ck.plan.Freezes), FEPart: fePart,
		Epochs:        len(ck.intervals),
		TakeoverMaxMS: float64(ck.takeoverMax) / float64(sim.Millisecond),
		NotPrimary:    pool.NotPrimary,
		Retargets:     pool.Retargets,
		Served:        ck.c.TotalServed(),
		Violations:    ck.violations,
		ViolationN:    ck.violationN,
	}

	routed := ck.retiredRouted
	pt.Fenced = ck.retiredFenced
	var takeovers, renewals, deposals, casErr uint64
	var cycles uint64
	for _, r := range ck.c.FrontEnds {
		if d := ck.disp[r.Index]; d != nil {
			routed += d.Routed
			pt.Fenced += d.Fenced
		}
		l := r.ClaimMgr.Claims[0]
		takeovers += l.Takeovers
		renewals += l.Renewals
		deposals += l.Deposals
		casErr += r.ClaimMgr.CASErrors
		cycles += r.Monitor.Cycles
	}

	// H6: standby monitoring must cost the back-ends nothing — under
	// RDMA-Sync no agent runs a single task, replicated or not.
	for _, a := range ck.c.Agents {
		if a != nil {
			pt.BackendTasks += a.BackendTasks()
		}
	}
	if pt.BackendTasks != 0 {
		ck.violationN++
		pt.ViolationN = ck.violationN
		pt.Violations = append(pt.Violations,
			fmt.Sprintf("H6 zero-cost: back-end agents run %d tasks under RDMA-Sync", pt.BackendTasks))
	}

	// The fingerprint digests everything the run produced, so an H5
	// replay mismatch catches any nondeterminism, not just one that
	// changed a headline number.
	epochs := ""
	for _, e := range ck.intervals {
		epochs += fmt.Sprintf("|%d:%d@%d-%d", e.replica, e.epoch, e.start, e.end)
	}
	pt.Fingerprint = fmt.Sprintf("served=%d routed=%d fenced=%d notprim=%d retgt=%d tmo=%d take=%d renew=%d dep=%d caserr=%d cyc=%d viol=%d tmax=%d epochs=%s",
		pt.Served, routed, pt.Fenced, pt.NotPrimary, pt.Retargets, pool.Timeouts,
		takeovers, renewals, deposals, casErr, cycles, pt.ViolationN, ck.takeoverMax, epochs)
	return pt
}

// Result renders the HA table.
func (d *HAData) Result() *Result {
	r := &Result{
		ID:    "ha",
		Title: "Front-end HA: leased primaryship and epoch-fenced dispatch under front-end faults",
		Columns: []string{"seed", "fe(c/f/p)", "epochs", "takeover(ms)", "fenced",
			"notprim", "retgt", "served", "beTasks", "viol"},
	}
	total := 0
	for _, p := range d.Points {
		total += p.ViolationN
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Seed),
			fmt.Sprintf("%d/%d/%d", p.FECrash, p.FEFrz, p.FEPart),
			fmt.Sprintf("%d", p.Epochs),
			f1(p.TakeoverMaxMS),
			fmt.Sprintf("%d", p.Fenced),
			fmt.Sprintf("%d", p.NotPrimary),
			fmt.Sprintf("%d", p.Retargets),
			fmt.Sprintf("%d", p.Served),
			fmt.Sprintf("%d", p.BackendTasks),
			fmt.Sprintf("%d", p.ViolationN),
		})
		for _, v := range p.Violations {
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d: %s", p.Seed, v))
		}
	}
	if total > 0 {
		r.Failed = true
		r.Notes = append(r.Notes, fmt.Sprintf("FAILED: %d invariant violation(s)", total))
	} else {
		r.Notes = append(r.Notes, "all invariants held: at most one epoch-valid dispatcher at any instant, zero routes under an invalid lease, every primary fault handed off within the takeover bound, epochs stayed globally monotone, the first seed replayed bit-identically, and back-end agents ran zero tasks throughout")
	}
	return r
}
