package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
)

func init() {
	register("chaos", "randomized fault plans vs failover invariants (N seeds, deterministic per seed)",
		func(o Options) *Result { return Chaos(o).Result() })
}

// Chaos SLOs, in probe periods T: literals, meant to be generous under
// sweep stretching (every disturbed back-end costs the sequential probe
// cycle a full timeout), yet bounded — the invariant is that recovery
// happens within a known window, not that it is instant. The fail-back
// bound is below its stretched worst case; EXPERIMENTS.md (chaos) says so.
const (
	// chaosDetectSLO bounds crash -> no-more-dispatch (I1): after a
	// back-end has been down this long, routing a request to it while
	// eligible alternatives exist is a violation.
	chaosDetectSLO = 20
	// chaosStaleSLO bounds record age for undisturbed back-ends (I2).
	chaosStaleSLO = 10
	// chaosTripSLO bounds RDMA-break -> breaker-tripped (I3a).
	chaosTripSLO = 10
	// chaosFailBackSLO bounds repair -> fail-back (I3b): the re-arm
	// schedule retests at 1/ReArmEvery of the probe rate and needs
	// FailBackAfter consecutive successes, all under sweep stretching.
	chaosFailBackSLO = 30
)

// ChaosPoint is one seed's run under a randomized fault plan.
type ChaosPoint struct {
	runAudit                      // seed, violations, I5 replay fingerprint
	CrashN, LinkN, PartN, MRN int // plan shape

	Trips, FailBacks uint64 // breaker transitions across the fleet
	Fallbacks        uint64 // probes served over the socket standby
	ReArms           uint64 // background RDMA re-arm probes

	TripMaxT     float64 // slowest MR-event trip, in probe periods
	FailBackMaxT float64 // slowest MR-event fail-back, in probe periods
	StaleMaxT    float64 // worst undisturbed record age, in probe periods

	HybPushes    uint64  // delta pushes the hybrid twin's agents posted
	HybStaleMaxT float64 // twin's worst undisturbed record age (I6)
}

// ChaosData holds the per-seed results.
type ChaosData struct {
	Points []ChaosPoint
}

// Chaos runs the randomized chaos harness: for each of Options.Seeds
// seeds it generates a random fault plan (crashes, lossy links,
// partitions, MR invalidations), runs a failover-armed RDMA-Sync
// cluster under RUBiS load, and checks the failover invariants:
//
//	I1  no request is dispatched to a crashed back-end once the crash
//	    is older than the detection SLO (while alternatives exist);
//	I2  every undisturbed back-end's record stays within the staleness
//	    SLO — over whichever transport;
//	I3  each MR invalidation trips the breaker within the trip SLO and
//	    fails back within the fail-back SLO of the repair;
//	I4  sequence numbers never regress on a single transport within an
//	    agent incarnation;
//	I5  a fixed seed replays bit-identically (checked for the first
//	    seed by running it twice);
//	I6  a hybrid-mode twin cluster under the SAME fault plan — pusher
//	    crashes mid-delta, invalidations of the front-end aggregation
//	    region, partitions while poll periods are decayed — keeps every
//	    undisturbed back-end within the staleness SLO, and its digest
//	    is part of the I5 replay check.
func Chaos(o Options) *ChaosData {
	cp, err := scenario.BuiltinChaos().Compile(o.Quick)
	if err != nil {
		// The builtin is covered by the golden tests; a compile failure
		// here is a programming error, not an input error.
		panic(err)
	}
	return chaosScenario(cp, o)
}

// chaosScenario runs the chaos invariant checker over a compiled
// scenario — the one driver behind both the legacy `-exp chaos` flags
// (via BuiltinChaos, bit-identical plans) and `-scenario` files with
// `checks: chaos`.
func chaosScenario(cp *scenario.Compiled, o Options) *ChaosData {
	return &ChaosData{Points: sweepSeeds(o, cp.Points(o.Seeds), cp.BaseSeed(o.Seed), "I5",
		func(seed int64) ChaosPoint { return chaosPoint(cp, seed) })}
}

func chaosPoint(cp *scenario.Compiled, seed int64) ChaosPoint {
	poll := cp.Poll
	horizon := cp.Horizon
	repin := cp.MRRepin

	c := cluster.New(cp.ClusterConfig(seed, ""))
	plan := cp.Plan(seed)
	in := c.ApplyFaults(plan)

	ck := newChaosChecker(c, plan, poll, repin)
	ck.install(in)
	defer ck.ticker.Stop()

	pool := c.StartRUBiS(cp.Clients, cp.Think, seed+11)
	c.Run(horizon)

	ck.checkMREvents(horizon)
	pt := ck.point(pool.Timeouts)

	// I6: the hybrid twin — same seed, same plan, push/pull monitoring.
	hyb := chaosHybridTwin(cp, seed, plan)
	pt.HybPushes = hyb.pushes
	pt.HybStaleMaxT = float64(hyb.staleMax) / float64(poll)
	pt.Violations = append(pt.Violations, hyb.Violations...)
	pt.ViolationN += hyb.ViolationN
	pt.Fingerprint += " " + hyb.Fingerprint
	return pt
}

// hybridTwinStats is what the I6 twin run reports back; its
// Fingerprint is the twin's digest.
type hybridTwinStats struct {
	runAudit
	pushes   uint64
	staleMax sim.Time
}

// staleAudit is the staleness sampler callback of I2 and I6: a
// back-end with no record, or with one older than chaosStaleSLO
// periods, is a violation named inv; *worst tracks the oldest record.
func staleAudit(a *runAudit, inv string, poll sim.Time, worst *sim.Time) func(now sim.Time, b int, age sim.Time, ok bool) {
	slo := sim.Time(chaosStaleSLO) * poll
	return func(now sim.Time, b int, age sim.Time, ok bool) {
		if !ok {
			a.violate("%s staleness: node %d has no record by %v", inv, b, now)
			return
		}
		if age > *worst {
			*worst = age
		}
		if age > slo {
			a.violate("%s staleness: node %d record is %v old at %v", inv, b, age, now)
		}
	}
}

// chaosHybridTwin replays the seed's fault plan against a cluster
// running the hybrid push/pull scheme and audits I6: every undisturbed
// back-end stays within the staleness SLO even though quiet back-ends
// are probed at a decayed period and rely on delta pushes landing in
// the front-end aggregation region. The twin's period ceiling (4T) and
// heartbeat (6T) are chosen so the all-pull staleness SLO (10T) is
// still the contract, not a relaxed one. Crashes kill pushers
// mid-delta, MR invalidations tear down the aggregation slots, and
// partitions strand decayed back-ends — all from the same plan the
// all-pull run survived.
func chaosHybridTwin(cp *scenario.Compiled, seed int64, plan faults.Plan) hybridTwinStats {
	poll, horizon := cp.Poll, cp.Horizon
	cfg := cp.ClusterConfig(seed, "")
	cfg.Hybrid = &core.HybridConfig{
		Period:    core.PeriodConfig{Min: poll, Max: 4 * poll},
		Heartbeat: 6 * poll,
		Check:     poll,
	}
	c := cluster.New(cfg)
	down := trackDown(c.Eng, c.ApplyFaults(plan))

	st := hybridTwinStats{}
	ticker := sampleStaleness(c, plan, poll, down, staleAudit(&st.runAudit, "I6 hybrid", poll, &st.staleMax))
	defer ticker.Stop()

	pool := c.StartRUBiS(cp.Clients, cp.Think, seed+11)
	c.Run(horizon)

	var skips, perrs, decayed uint64
	for _, p := range c.Pushers {
		if p != nil {
			st.pushes += p.Pushes
			skips += p.Skips
			perrs += p.Errors
		}
	}
	decayed = c.Monitor.Decayed
	var rx, torn uint64
	if c.Monitor.Sink != nil {
		rx = c.Monitor.Sink.Received
		torn = c.Monitor.Sink.Torn
	}
	seqs := ""
	for _, b := range c.Monitor.Backends() {
		seqs += seqMark(b, c.Monitor.Probers[b])
	}
	// The twin's digest joins the main fingerprint so I5's replay check
	// covers hybrid mode too: pushes, skips, errors, sink counters, the
	// decayed-probe count and final per-node records must all replay
	// bit-identically.
	st.Fingerprint = fmt.Sprintf("hyb: pushes=%d skips=%d perr=%d rx=%d torn=%d decay=%d stale=%d drop=%d served=%d tmo=%d hviol=%d seqs=%s",
		st.pushes, skips, perrs, rx, torn, decayed, st.staleMax,
		c.Monitor.StalePushes, c.TotalServed(), pool.Timeouts, st.ViolationN, seqs)
	return st
}

// chaosChecker audits one run against the invariants above.
type chaosChecker struct {
	c           *cluster.Cluster
	plan        faults.Plan
	poll, repin sim.Time

	*downSet // crashed back-ends; a restart starts a new agent incarnation

	trips     map[int][]sim.Time // breaker trip instants per back-end
	failbacks map[int][]sim.Time

	staleMax sim.Time
	tripMax  sim.Time // worst measured MR-event trip latency
	fbMax    sim.Time // worst measured MR-event fail-back latency
	runAudit

	ticker *sim.Ticker
}

func newChaosChecker(c *cluster.Cluster, plan faults.Plan, poll, repin sim.Time) *chaosChecker {
	return &chaosChecker{
		c: c, plan: plan, poll: poll, repin: repin,
		trips:     make(map[int][]sim.Time),
		failbacks: make(map[int][]sim.Time),
	}
}

func (ck *chaosChecker) install(in *faults.Injector) {
	eng := ck.c.Eng
	ck.downSet = trackDown(eng, in)

	// I1: audit every routing decision.
	detect := sim.Time(chaosDetectSLO) * ck.poll
	ck.c.Dispatcher.OnRoute = func(b int) {
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

	for _, b := range ck.c.Monitor.Backends() {
		// I3: timestamp breaker transitions.
		fo := ck.c.Monitor.Failover(b)
		fo.OnTrip = func() { ck.trips[b] = append(ck.trips[b], eng.Now()) }
		fo.OnFailBack = func() { ck.failbacks[b] = append(ck.failbacks[b], eng.Now()) }
	}

	// I4: a restart resets the agent's counter, so each incarnation
	// has its own watermarks.
	watchSeqs(ck.c, ck.restarts, func(b int, tr core.Transport, seq, last uint32) {
		ck.violate("I4 seq: node %d %s seq %d after %d", b, tr, seq, last)
	}, nil)

	// I2: staleness sweep each probe period.
	ck.ticker = sampleStaleness(ck.c, ck.plan, ck.poll, ck.downSet, staleAudit(&ck.runAudit, "I2", ck.poll, &ck.staleMax))
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
// measurement window is polluted by another fault on the same node (or
// truncated by the horizon) are skipped — attribution would be
// guesswork. When the same node is invalidated again before its
// fail-back deadline, the breakage restarts: measurement defers to the
// last event of the chain, and an already-tripped node skips only the
// trip check (its fail-back from the fresh repair is still owed).
func (ck *chaosChecker) checkMREvents(horizon sim.Time) {
	tripSLO := sim.Time(chaosTripSLO) * ck.poll
	fbSLO := sim.Time(chaosFailBackSLO) * ck.poll
	for i, mi := range ck.plan.MRInvalidations {
		deadline := mi.At + ck.repin + fbSLO
		if deadline > horizon || ck.overlapped(mi.Node, mi.At-2*ck.poll, deadline) {
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

// overlapped reports whether any non-MR fault touches node b inside
// [from, to] — used to skip unattributable I3 measurements.
func (ck *chaosChecker) overlapped(b int, from, to sim.Time) bool {
	for _, cr := range ck.plan.Crashes {
		if cr.Node == b && cr.At < to && cr.RestartAt > from {
			return true
		}
	}
	for _, p := range ck.plan.Partitions {
		if (intsHave(p.A, b) || intsHave(p.B, b)) && p.Start < to && p.End > from {
			return true
		}
	}
	for _, l := range ck.plan.Links {
		if l.To == b && l.Start < to && l.End > from {
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

// seqMark renders back-end b's newest record for a replay fingerprint
// as "|b:seq@arrival", "|b:0@0" before its first record.
func seqMark(b int, p *core.Prober) string {
	var seq uint32
	var at sim.Time
	if rec, t, ok := p.Latest(); ok {
		seq, at = rec.Seq, t
	}
	return fmt.Sprintf("|%d:%d@%d", b, seq, at)
}

func intsHave(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (ck *chaosChecker) point(clientTmo uint64) ChaosPoint {
	pt := ChaosPoint{
		runAudit: ck.runAudit,
		CrashN:   len(ck.plan.Crashes), LinkN: len(ck.plan.Links),
		PartN: len(ck.plan.Partitions), MRN: len(ck.plan.MRInvalidations),
	}
	seqs := ""
	for _, b := range ck.c.Monitor.Backends() {
		fo := ck.c.Monitor.Failover(b)
		p := ck.c.Monitor.Probers[b]
		pt.Trips += fo.Trips
		pt.FailBacks += fo.FailBacks
		pt.Fallbacks += p.Fallbacks
		pt.ReArms += p.ReArms
		seqs += seqMark(b, p)
	}
	pt.TripMaxT = float64(ck.tripMax) / float64(ck.poll)
	pt.FailBackMaxT = float64(ck.fbMax) / float64(ck.poll)
	pt.StaleMaxT = float64(ck.staleMax) / float64(ck.poll)
	// The fingerprint digests everything the run produced — counters,
	// final records, violations — so an I5 replay mismatch catches any
	// nondeterminism, not just one that changed a headline number.
	pt.Fingerprint = fmt.Sprintf("trips=%d fb=%d fall=%d rearm=%d served=%d routed=%d tmo=%d cyc=%d viol=%d stale=%d trip=%d fback=%d seqs=%s",
		pt.Trips, pt.FailBacks, pt.Fallbacks, pt.ReArms,
		ck.c.TotalServed(), ck.c.Dispatcher.Routed, clientTmo, ck.c.Monitor.Cycles,
		ck.ViolationN, ck.staleMax, ck.tripMax, ck.fbMax, seqs)
	return pt
}

// Result renders the chaos table.
func (d *ChaosData) Result() *Result {
	r := &Result{
		ID:    "chaos",
		Title: "Randomized transport-failover chaos: invariants across seeded fault plans",
		Columns: []string{"seed", "plan(c/l/p/m)", "trips", "failbk", "fallbk", "rearm",
			"trip(T)", "failbk(T)", "stale(T)", "pushes", "hyb stale(T)", "viol"},
	}
	for _, p := range d.Points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Seed),
			fmt.Sprintf("%d/%d/%d/%d", p.CrashN, p.LinkN, p.PartN, p.MRN),
			fmt.Sprintf("%d", p.Trips),
			fmt.Sprintf("%d", p.FailBacks),
			fmt.Sprintf("%d", p.Fallbacks),
			fmt.Sprintf("%d", p.ReArms),
			f1(p.TripMaxT),
			f1(p.FailBackMaxT),
			f1(p.StaleMaxT),
			fmt.Sprintf("%d", p.HybPushes),
			f1(p.HybStaleMaxT),
			fmt.Sprintf("%d", p.ViolationN),
		})
	}
	noteVerdict(r, d.Points, "all invariants held: crashed nodes shed traffic within the detection SLO, surviving nodes stayed within the staleness SLO over whichever transport, every clean MR invalidation tripped and failed back within SLO, sequence numbers never regressed per transport, the hybrid twin kept the same staleness SLO under the same fault plans, and the first seed (both modes) replayed bit-identically")
	return r
}
