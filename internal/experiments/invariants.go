package experiments

import (
	"fmt"
	"slices"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
	"rdmamon/internal/workload"
)

// Every harness check, each written once (DESIGN §3 maps each invariant
// to the function here that checks it and the harnesses that run it):
//
//   - violations, the record every harness keeps, and runAudit, what a
//     fault harness reports per seed;
//   - sweepSeeds, the seed sweep with its replay rule, and noteVerdict;
//   - runFaulted, the seeded fault run, and planHits, the plan-window
//     query;
//   - sampleStaleness, the fault harnesses' undisturbed-staleness
//     sampler, and effStale, the fleet harnesses' effective staleness;
//   - watchSeqs (I4) and fleetCheck, the check every fleet run makes;
//   - chaosChecker (I1-I4) and claimAudit (H1-H4, H6, A1, A2).

// maxNotes caps how many violation messages a record keeps; the count
// goes on.
const maxNotes = 8

// violations is the one record of broken invariants every harness
// keeps: the first maxNotes messages, each after prefix, the count of
// all of them, and Failed.
type violations struct {
	Failed bool
	Notes  []string
	Count  int
	prefix string
}

// fleetViolations is a fleet harness's record, whose notes read
// "VIOLATION: ...". A fault harness's record has no prefix: its
// verdict (noteVerdict) names the seed instead.
func fleetViolations() violations { return violations{prefix: "VIOLATION: "} }

func (v *violations) violate(format string, args ...any) {
	v.Failed = true
	v.Count++
	if len(v.Notes) < maxNotes {
		v.Notes = append(v.Notes, v.prefix+fmt.Sprintf(format, args...))
	}
}

// runAudit is what a fault harness reports per seed besides its table
// row: the seed, the violations found and a replay fingerprint.
type runAudit struct {
	Seed int64
	violations
	Fingerprint string // deterministic run digest (replay check)
}

func (a *runAudit) audit() *runAudit { return a }

// audited is a harness point embedding a runAudit.
type audited[P any] interface {
	*P
	audit() *runAudit
}

// sweepSeeds runs point for every variant over cp's seeds (base +
// i·7919, scenario.Compiled.SeedAt), all in parallel, variant-major,
// and stamps each point's Seed. It runs the first point twice: a
// replay whose fingerprint differs is the violation
// "<inv>: replay of seed N diverged".
func sweepSeeds[P any, PP audited[P]](cp *scenario.Compiled, o Options, variants int, inv string, point func(v int, seed int64) P) []P {
	n, base := cp.Points(o.Seeds), cp.BaseSeed(o.Seed)
	pts := make([]P, variants*n)
	forEach(len(pts), func(k int) {
		seed := cp.SeedAt(base, k%n)
		pts[k] = point(k/n, seed)
		a := PP(&pts[k]).audit()
		a.Seed = seed
		if k == 0 {
			replay := point(0, seed)
			if PP(&replay).audit().Fingerprint != a.Fingerprint {
				a.violate("%s: replay of seed %d diverged", inv, seed)
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
		total += a.Count
		for _, v := range a.Notes {
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

// faultRun is one seeded run of a compiled scenario under its fault
// plan.
type faultRun struct {
	c    *cluster.Cluster
	plan faults.Plan
	pool *workload.ClientPool

	// Which nodes the plan has crashed, since when, and how often each
	// has restarted (a restart starts a new agent incarnation).
	down     map[int]bool
	since    map[int]sim.Time
	restarts map[int]int
}

// runFaulted is the seeded fault run of every fault harness: build
// cfg's cluster, apply cp's fault plan for cfg.Seed, track its crashes
// and restarts, let hooks install the caller's checks, start RUBiS
// and run to the horizon. hooks runs before StartRUBiS: the events it
// schedules (a sampler's ticker) take their engine keys before the
// clients' do, and moving it would reorder same-instant events.
func runFaulted(cp *scenario.Compiled, cfg cluster.Config, hooks func(*faultRun)) *faultRun {
	c := cluster.New(cfg)
	r := &faultRun{c: c, plan: cp.Plan(cfg.Seed),
		down: make(map[int]bool), since: make(map[int]sim.Time), restarts: make(map[int]int)}
	// Chained after the cluster's own handling: the injector reads its
	// hooks at fire time.
	in := c.ApplyFaults(r.plan)
	prevCrash, prevRestart := in.OnCrash, in.OnRestart
	in.OnCrash = func(node int) {
		if prevCrash != nil {
			prevCrash(node)
		}
		r.down[node], r.since[node] = true, c.Eng.Now()
	}
	in.OnRestart = func(node int) {
		if prevRestart != nil {
			prevRestart(node)
		}
		r.down[node] = false
		r.restarts[node]++
	}
	hooks(r)
	r.pool = c.StartRUBiS(cp.Clients, cp.Think, cfg.Seed+11)
	c.Run(cp.Horizon)
	return r
}

// planHits reports whether a crash, partition or link window of plan
// that touches back-end b, widened to [start−pre, end+post), overlaps
// [from, to). A point query at t asks [t, t+1ns). MR invalidations are
// pointedly absent: surviving one within the staleness SLO is what the
// failover path is for, and I3 measures them itself.
func planHits(plan faults.Plan, b int, from, to, pre, post sim.Time) bool {
	hits := func(start, end sim.Time) bool { return start-pre < to && end+post > from }
	for _, cr := range plan.Crashes {
		if cr.Node == b && hits(cr.At, cr.RestartAt) {
			return true
		}
	}
	for _, p := range plan.Partitions {
		if (slices.Contains(p.A, b) || slices.Contains(p.B, b)) && hits(p.Start, p.End) {
			return true
		}
	}
	for _, l := range plan.Links {
		if l.To == b && hits(l.Start, l.End) {
			return true
		}
	}
	return false
}

// sampleStaleness ticks every poll and, once a 20-poll warm-up has let
// first records land, calls fn with the record age of every back-end
// that is up and outside every fault window of r's plan (widened by a
// poll before and ten after, for detection and recovery); ok is false
// for one with no record yet.
func sampleStaleness(r *faultRun, poll sim.Time, fn func(now sim.Time, b int, age sim.Time, ok bool)) {
	warmup := 20 * poll
	r.c.Eng.NewTicker(poll, func() {
		now := r.c.Eng.Now()
		if now < warmup {
			return
		}
		for _, b := range r.c.Monitor.Backends() {
			if r.down[b] || planHits(r.plan, b, now, now+1, poll, 10*poll) {
				continue
			}
			_, at, ok := r.c.Monitor.Latest(b)
			fn(now, b, now-at, ok)
		}
	})
}

// staleAudit is the staleness sampler callback of I2 and I6: a
// back-end with no record, or with one older than chaosStaleSLO
// periods, is a violation named inv; *worst tracks the oldest record.
func staleAudit(v *violations, inv string, poll sim.Time, worst *sim.Time) func(now sim.Time, b int, age sim.Time, ok bool) {
	slo := sim.Time(chaosStaleSLO) * poll
	return func(now sim.Time, b int, age sim.Time, ok bool) {
		if !ok {
			v.violate("%s staleness: node %d has no record by %v", inv, b, now)
			return
		}
		if age > *worst {
			*worst = age
		}
		if age > slo {
			v.violate("%s staleness: node %d record is %v old at %v", inv, b, age, now)
		}
	}
}

// effStale measures effective staleness against ground truth (the
// paper's §5.1.3 trick: a zero-cost direct kernel snapshot). A cached
// record is stale only while it is wrong: a decayed poll period that
// keeps an old record whose load index still matches truth
// (core.DefaultChangeThreshold) is old, not stale.
type effStale struct {
	c        *cluster.Cluster
	since    sim.Time   // the start of the audit
	accurate []sim.Time // per back-end: when its cache last matched truth
}

func newEffStale(c *cluster.Cluster, since sim.Time) *effStale {
	return &effStale{c: c, since: since, accurate: make([]sim.Time, len(c.Backends)+1)}
}

// sweep samples every back-end of bs and returns the worst effective
// staleness, min(age, now − max(lastAccurate, since)), and the worst
// record age among those with a record, and how many have none.
func (e *effStale) sweep(bs []int) (eff, age sim.Time, missing int) {
	now := e.c.Eng.Now()
	for _, b := range bs {
		truth := core.RecordFromSnapshot(e.c.Backends[b-1].K.Snapshot(), 0)
		cached, at, ok := e.c.Monitor.Latest(b)
		if !ok {
			missing++
			continue
		}
		if core.LoadDelta(&truth, cached) <= core.DefaultChangeThreshold {
			e.accurate[b] = now
		}
		eff = max(eff, min(now-at, now-max(e.accurate[b], e.since)))
		age = max(age, now-at)
	}
	return eff, age, missing
}

// watchSeqs installs the I4 audit on every prober of c: a back-end's
// sequence numbers never regress on one transport within one agent
// incarnation (the push transport has its own counter space, so
// transports are never compared). restarts[b] counts b's restarts
// (nil: none), and a new incarnation clears b's watermarks. regress is
// called on each regression; also, if not nil, sees every record.
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

// probeErrors sums the probe errors of back-ends bs.
func probeErrors(c *cluster.Cluster, bs []int) int {
	n := 0
	for _, b := range bs {
		n += c.Monitor.Probers[b].Errors
	}
	return n
}

// noRecord counts c's back-ends with no record yet.
func noRecord(c *cluster.Cluster) int {
	n := 0
	for _, b := range c.Monitor.Backends() {
		if _, _, ok := c.Monitor.Latest(b); !ok {
			n++
		}
	}
	return n
}

// fleetCheck is what every fleet harness checks on each cluster it
// runs: no sequence regression on one transport (I4), no probe error,
// and a record for every back-end once warm-up is over.
type fleetCheck struct {
	SeqViolations int // I4 regressions
	Errors        int // probe errors over the whole run
	NoRecord      int // back-ends with no record at the end of warm-up
}

// watch installs the I4 audit on c; also, if not nil, sees every
// record.
func (f *fleetCheck) watch(c *cluster.Cluster, also func(b int, rec wire.LoadRecord, at sim.Time)) {
	watchSeqs(c, nil, func(int, core.Transport, uint32, uint32) { f.SeqViolations++ }, also)
}

// warm runs c to the end of its warm-up and counts the back-ends still
// without a record.
func (f *fleetCheck) warm(c *cluster.Cluster, until sim.Time) {
	c.Eng.RunUntil(until)
	f.NoRecord = noRecord(c)
}

// done adds c's probe errors at the end of the run.
func (f *fleetCheck) done(c *cluster.Cluster) { f.Errors += probeErrors(c, c.Monitor.Backends()) }

// assess records in v each fleet contract the run named run broke.
func (f *fleetCheck) assess(v *violations, run string) {
	if f.SeqViolations > 0 {
		v.violate("%s saw %d per-transport sequence regressions", run, f.SeqViolations)
	}
	if f.Errors > 0 {
		v.violate("%s saw %d errors", run, f.Errors)
	}
	if f.NoRecord > 0 {
		v.violate("%s left %d back-ends with no record after warm-up", run, f.NoRecord)
	}
}

// chaosChecker checks one chaos run against I1-I4 (Chaos states them).
type chaosChecker struct {
	*faultRun
	poll, repin sim.Time

	trips     map[int][]sim.Time // breaker trip instants per back-end
	failbacks map[int][]sim.Time

	staleMax sim.Time
	tripMax  sim.Time // worst measured MR-event trip latency
	fbMax    sim.Time // worst measured MR-event fail-back latency
	runAudit
}

func newChaosChecker(poll, repin sim.Time) *chaosChecker {
	return &chaosChecker{
		poll: poll, repin: repin,
		trips:     make(map[int][]sim.Time),
		failbacks: make(map[int][]sim.Time),
	}
}

// install is runFaulted's hooks for a chaos run.
func (ck *chaosChecker) install(r *faultRun) {
	ck.faultRun = r
	eng := r.c.Eng

	// I1: audit every routing decision.
	detect := sim.Time(chaosDetectSLO) * ck.poll
	r.c.Dispatcher.OnRoute = func(b int) {
		if !ck.down[b] || eng.Now() <= ck.since[b]+detect {
			return
		}
		if !ck.anyEligible() {
			// The whole fleet looks condemned: uniform fallback over
			// everyone is the policy's documented last resort.
			return
		}
		ck.violate("I1 dispatch: request routed to node %d, down since %v", b, ck.since[b])
	}

	for _, b := range r.c.Monitor.Backends() {
		// I3: timestamp breaker transitions.
		fo := r.c.Monitor.Failover(b)
		fo.OnTrip = func() { ck.trips[b] = append(ck.trips[b], eng.Now()) }
		fo.OnFailBack = func() { ck.failbacks[b] = append(ck.failbacks[b], eng.Now()) }
	}

	// I4: a restart resets the agent's counter, so each incarnation
	// has its own watermarks.
	watchSeqs(r.c, ck.restarts, func(b int, tr core.Transport, seq, last uint32) {
		ck.violate("I4 seq: node %d %s seq %d after %d", b, tr, seq, last)
	}, nil)

	// I2: staleness sweep each probe period.
	sampleStaleness(r, ck.poll, staleAudit(&ck.violations, "I2", ck.poll, &ck.staleMax))
}

func (ck *chaosChecker) anyEligible() bool {
	for _, b := range ck.c.Monitor.Backends() {
		if !ck.down[b] && ck.c.Monitor.Health(b).Eligible() {
			return true
		}
	}
	return false
}

// checkMREvents runs the I3 checks once the run is over: each MR
// invalidation must have tripped the breaker within the trip SLO and
// failed back within the fail-back SLO of the re-pin. Events whose
// measurement window another fault on the same node overlaps (or the
// horizon truncates) are skipped — attribution would be guesswork.
// When the same node is invalidated again before its fail-back
// deadline, the breakage restarts: measurement defers to the last
// event of the chain, and an already-tripped node skips only the trip
// check (its fail-back from the fresh repair is still owed).
func (ck *chaosChecker) checkMREvents(horizon sim.Time) {
	tripSLO := sim.Time(chaosTripSLO) * ck.poll
	fbSLO := sim.Time(chaosFailBackSLO) * ck.poll
	for i, mi := range ck.plan.MRInvalidations {
		deadline := mi.At + ck.repin + fbSLO
		if deadline > horizon || planHits(ck.plan, mi.Node, mi.At-2*ck.poll, deadline, 0, 0) {
			continue
		}
		if ck.reinvalidated(i, deadline) {
			continue
		}
		if !ck.trippedAt(mi.Node, mi.At) {
			tripAt, ok := firstAfter(ck.trips[mi.Node], mi.At)
			if !ok || tripAt > mi.At+tripSLO {
				ck.violate("I3 trip: node %d MR invalidated at %v, no trip within %v", mi.Node, mi.At, tripSLO)
				continue
			}
			if lat := tripAt - mi.At; lat > ck.tripMax {
				ck.tripMax = lat
			}
		}
		// No fail-back can precede the re-pin (re-arm reads fail against
		// the dead key), so the first one after At is the one the fresh
		// repair earned.
		fbAt, ok := firstAfter(ck.failbacks[mi.Node], mi.At)
		if !ok || fbAt > deadline {
			ck.violate("I3 fail-back: node %d re-pinned at %v, no fail-back within %v", mi.Node, mi.At+ck.repin, fbSLO)
			continue
		}
		if lat := fbAt - (mi.At + ck.repin); lat > ck.fbMax {
			ck.fbMax = lat
		}
	}
}

// reinvalidated reports whether another MR event hits the same node
// after event i but before its fail-back deadline.
func (ck *chaosChecker) reinvalidated(i int, deadline sim.Time) bool {
	mi := ck.plan.MRInvalidations[i]
	for j, other := range ck.plan.MRInvalidations {
		if j != i && other.Node == mi.Node && other.At > mi.At && other.At <= deadline {
			return true
		}
	}
	return false
}

func (ck *chaosChecker) trippedAt(b int, t sim.Time) bool {
	n := 0
	for _, ts := range ck.trips[b] {
		if ts <= t {
			n++
		}
	}
	for _, ts := range ck.failbacks[b] {
		if ts <= t {
			n--
		}
	}
	return n > 0
}

func firstAfter(ts []sim.Time, t sim.Time) (sim.Time, bool) {
	for _, x := range ts {
		if x >= t {
			return x, true
		}
	}
	return 0, false
}

// claimSlack is the allowance, in claim check cycles, added on top of
// ExpireAfter (plus VacantGrace under active-active) for the H3/A2
// reclaim bound: the victim's last renewal can land up to one cycle
// before the fault, a survivor observes it up to one cycle later, its
// bid waits for the next round boundary and takes a network round
// trip, and dispatch traffic on its node can delay its claim task by a
// few more cycles. EXPERIMENTS.md derives the number.
const claimSlack = 8

// claimChecks names the claim audit's four checks. HA numbers them
// H1-H4 over its one-shard table, active-active folds them into A1
// and A2 over N shards; the checks are the same.
type claimChecks struct{ epoch, fence, overlap, reclaim string }

var (
	haChecks = claimChecks{"H4 epoch", "H2 fence", "H1 split-brain", "H3 takeover"}
	aaChecks = claimChecks{"A1 epoch", "A1 fence", "A1 double-hold", "A2 reclaim"}
)

// claimInterval is one replica's validity window over one shard epoch:
// opened by an acquire, extended by renewals, truncated by a deposal
// or release (or left at the last renewal's validUntil if the holder
// died or froze holding it).
type claimInterval struct {
	replica    int
	shard      uint16
	epoch      uint16
	start, end sim.Time
}

// claimFault is a front-end fault instant with the shards its victim
// validly held just before it landed.
type claimFault struct {
	at     sim.Time
	kind   string
	victim int
	shards []uint16
}

// claimCounters totals the dispatch and claim counters of a run.
type claimCounters struct {
	routed, fenced, shardFenced              uint64
	takeovers, renewals, deposals, handbacks uint64
	casErr, readErr, rounds, cycles          uint64
}

// add folds one dispatcher's and one claim manager's counters in.
func (t *claimCounters) add(d *httpsim.Dispatcher, m *core.ClaimManager) {
	t.routed += d.Routed
	t.fenced += d.Fenced
	t.shardFenced += d.ShardFenced
	tk, rn, dp, hb := m.Counters()
	t.takeovers += tk
	t.renewals += rn
	t.deposals += dp
	t.handbacks += hb
	t.casErr += m.CASErrors
	t.readErr += m.ReadErrors
	t.rounds += m.Rounds
}

// claimAudit checks one run of a replicated RDMA-Sync front-end, per
// claim shard (HA is the one-shard table with every replica home):
//
//	epoch    each shard's acquisitions take strictly rising epochs;
//	fence    no replica routes to a back-end whose shard claim it does
//	         not validly hold at that instant;
//	overlap  no two replicas' validity intervals on a shard overlap;
//	reclaim  every shard a fault's victim validly held is re-acquired
//	         (by anyone, the restarted victim included) within the
//	         reclaim bound;
//	H6       back-end agents run zero tasks.
type claimAudit struct {
	c     *cluster.Cluster
	names claimChecks
	bound sim.Time // reclaim bound

	intervals  []*claimInterval          // all validity intervals, in acquire order
	open       map[[2]int]*claimInterval // (replica, shard) -> open interval
	lastEpoch  map[uint16]uint16         // shard -> highest epoch acquired
	faults     []claimFault
	reclaimMax sim.Time // slowest measured reacquisition

	// The dispatcher and claim manager each replica runs now; a restart
	// replaces both, so the dead ones' counters are retired.
	disp    map[int]*httpsim.Dispatcher
	mgrs    map[int]*core.ClaimManager
	retired claimCounters

	backendTasks int
	runAudit
}

// claimRun is the seeded fault run ha and aa check: runFaulted with
// the claim audit hooked in, finished at the horizon.
func claimRun(cp *scenario.Compiled, seed int64) (*faultRun, *claimAudit) {
	var a *claimAudit
	r := runFaulted(cp, cp.ClusterConfig(seed, ""), func(r *faultRun) { a = auditClaims(r.c, r.plan) })
	a.finish(cp.Horizon)
	return r, a
}

// auditClaims hooks a claimAudit into a replicated cluster and
// observes plan's front-end faults. One fact, Cfg.ActiveActive, picks
// the check names and adds VacantGrace to the reclaim bound: only
// active-active has foreign bidders, which wait it out.
func auditClaims(c *cluster.Cluster, plan faults.Plan) *claimAudit {
	cfg := c.Claim // cluster.New resolved the defaults
	a := &claimAudit{
		c:         c,
		names:     haChecks,
		bound:     cfg.ExpireAfter + claimSlack*cfg.CheckEvery,
		open:      make(map[[2]int]*claimInterval),
		lastEpoch: make(map[uint16]uint16),
		disp:      make(map[int]*httpsim.Dispatcher),
		mgrs:      make(map[int]*core.ClaimManager),
	}
	if c.Cfg.ActiveActive {
		a.names = aaChecks
		a.bound += cfg.VacantGrace()
	}
	for _, r := range c.FrontEnds {
		a.hook(r)
	}
	c.OnReplicaRestart = func(r *cluster.Replica) {
		a.retired.add(a.disp[r.Index], a.mgrs[r.Index])
		a.hook(r)
	}

	// Capture what the victim validly holds 1ns before each front-end
	// fault lands (the injector's events were scheduled first, so an
	// observer at the fault instant would run after it).
	reps := make(map[int]*cluster.Replica)
	for _, r := range c.FrontEnds {
		reps[r.Node.ID] = r
	}
	observe := func(at sim.Time, kind string, victim int) {
		r := reps[victim]
		if r == nil {
			return
		}
		c.Eng.After(at-1*sim.Nanosecond, func() {
			if r.Down() {
				return
			}
			f := claimFault{at: at, kind: kind, victim: victim}
			now := c.Eng.Now()
			for s := 0; s < r.ClaimMgr.Shards(); s++ {
				if r.ClaimMgr.Valid(s, now) {
					f.shards = append(f.shards, uint16(s))
				}
			}
			a.faults = append(a.faults, f)
		})
	}
	for _, cr := range plan.Crashes {
		observe(cr.At, "crash", cr.Node)
	}
	for _, fz := range plan.Freezes {
		observe(fz.At, "freeze", fz.Node)
	}
	for _, pa := range plan.Partitions {
		if len(pa.A) == 1 && len(pa.B) == 1 && pa.B[0] == c.Witness.ID {
			observe(pa.Start, "partition", pa.A[0])
		}
	}
	return a
}

// hook installs the claim observers and the fence audit on one
// replica's (possibly fresh) objects.
func (a *claimAudit) hook(r *cluster.Replica) {
	idx, mgr := r.Index, r.ClaimMgr
	a.disp[idx], a.mgrs[idx] = r.Dispatcher, mgr

	for _, cl := range mgr.Claims {
		cl.OnAcquire = func(shard, epoch uint16, now, validUntil sim.Time) {
			a.acquire(idx, shard, epoch, now, validUntil)
		}
		cl.OnRenew = func(shard, _ uint16, _, validUntil sim.Time) {
			if e := a.open[[2]int{idx, int(shard)}]; e != nil && validUntil > e.end {
				e.end = validUntil
			}
		}
		cl.OnDepose = func(shard, _ uint16, now sim.Time) { a.close(idx, shard, now) }
		cl.OnRelease = func(shard, _ uint16, now sim.Time) { a.close(idx, shard, now) }
	}

	// The fence is what should make every route legal; auditing at
	// OnRoute (after the fence, before the forward) catches any leak.
	r.Dispatcher.OnRoute = func(b int) {
		now, s := a.c.Eng.Now(), a.c.ShardOf(b)
		if !mgr.Valid(s, now) {
			a.violate("%s: replica %d routed to back-end %d without holding shard %d at %v",
				a.names.fence, idx, b, s, now)
		}
	}
}

func (a *claimAudit) acquire(replica int, shard, epoch uint16, now, validUntil sim.Time) {
	if last, seen := a.lastEpoch[shard]; seen && epoch <= last {
		a.violate("%s: replica %d acquired shard %d epoch %d after epoch %d was taken",
			a.names.epoch, replica, shard, epoch, last)
	} else {
		a.lastEpoch[shard] = epoch
	}
	e := &claimInterval{replica: replica, shard: shard, epoch: epoch, start: now, end: validUntil}
	a.open[[2]int{replica, int(shard)}] = e
	a.intervals = append(a.intervals, e)
}

// close ends replica's open interval on shard at now.
func (a *claimAudit) close(replica int, shard uint16, now sim.Time) {
	key := [2]int{replica, int(shard)}
	if e := a.open[key]; e != nil {
		e.end = min(e.end, now)
		a.open[key] = nil
	}
}

// finish runs the after-the-run checks: overlaps, reclaims, then H6.
// Faults whose reclaim window the horizon truncates are skipped.
// Intervals are conservative: a lapsed holder that later revalidated
// keeps one contiguous interval, which is only possible when nobody
// else acquired the shard in between.
func (a *claimAudit) finish(horizon sim.Time) {
	for i, x := range a.intervals {
		for _, y := range a.intervals[i+1:] {
			if x.replica != y.replica && x.shard == y.shard && x.start < y.end && y.start < x.end {
				a.violate("%s: shard %d replica %d epoch %d [%v, %v] overlaps replica %d epoch %d [%v, %v]",
					a.names.overlap, x.shard, x.replica, x.epoch, x.start, x.end, y.replica, y.epoch, y.start, y.end)
			}
		}
	}
	for _, f := range a.faults {
		if f.at+a.bound > horizon {
			continue
		}
		for _, s := range f.shards {
			won := sim.Time(-1)
			for _, e := range a.intervals {
				if e.shard == s && e.start > f.at {
					won = e.start
					break
				}
			}
			if won < 0 || won-f.at > a.bound {
				a.violate("%s: %s of front-end %d at %v orphaned shard %d, not re-acquired within %v",
					a.names.reclaim, f.kind, f.victim, f.at, s, a.bound)
				continue
			}
			a.reclaimMax = max(a.reclaimMax, won-f.at)
		}
	}

	// H6: shadow monitoring and claims must cost the back-ends nothing;
	// under RDMA-Sync no agent runs a single task, replicated or not.
	for _, ag := range a.c.Agents {
		if ag != nil {
			a.backendTasks += ag.BackendTasks()
		}
	}
	if a.backendTasks != 0 {
		a.violate("H6 zero-cost: back-end agents run %d tasks under RDMA-Sync", a.backendTasks)
	}
}

// totals sums the dispatch and claim counters over the live replicas
// and the retired ones.
func (a *claimAudit) totals() claimCounters {
	t := a.retired
	for _, r := range a.c.FrontEnds {
		t.add(a.disp[r.Index], r.ClaimMgr)
		t.cycles += r.Monitor.Cycles
	}
	return t
}

// fingerprint digests everything the run produced, so a replay
// mismatch catches any nondeterminism, not just one that changed a
// headline number.
func (a *claimAudit) fingerprint(pool *workload.ClientPool) string {
	t := a.totals()
	spans := ""
	for _, e := range a.intervals {
		spans += fmt.Sprintf("|%d:%d:%d@%d-%d", e.replica, e.shard, e.epoch, e.start, e.end)
	}
	return fmt.Sprintf(
		"served=%d routed=%d sfenced=%d fenced=%d notprim=%d retgt=%d tmo=%d take=%d renew=%d dep=%d hand=%d caserr=%d readerr=%d rounds=%d cyc=%d viol=%d rmax=%d spans=%s",
		a.c.TotalServed(), t.routed, t.shardFenced, t.fenced, pool.NotPrimary, pool.Retargets, pool.Timeouts,
		t.takeovers, t.renewals, t.deposals, t.handbacks, t.casErr, t.readErr, t.rounds, t.cycles,
		a.Count, a.reclaimMax, spans)
}
