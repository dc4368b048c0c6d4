package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

func init() {
	register("chaos", "randomized fault plans vs failover invariants (N seeds, deterministic per seed)",
		func(o Options) *Result { return Chaos(o).Result() })
}

// Chaos SLOs, in probe periods T. They are deliberately generous
// enough to hold under worst-case sweep stretching (every disturbed
// back-end costs the sequential probe cycle a full timeout), yet
// bounded — the invariant is that recovery happens within a known
// window, not that it is instant. EXPERIMENTS.md derives the numbers.
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
	Seed                      int64
	CrashN, LinkN, PartN, MRN int // plan shape

	Trips, FailBacks uint64 // breaker transitions across the fleet
	Fallbacks        uint64 // probes served over the socket standby
	ReArms           uint64 // background RDMA re-arm probes

	TripMaxT     float64 // slowest MR-event trip, in probe periods
	FailBackMaxT float64 // slowest MR-event fail-back, in probe periods
	StaleMaxT    float64 // worst undisturbed record age, in probe periods

	HybPushes    uint64  // delta pushes the hybrid twin's agents posted
	HybStaleMaxT float64 // twin's worst undisturbed record age (I6)

	Violations []string // invariant violations (empty = pass)
	ViolationN int      // total count (Violations is capped)

	Fingerprint string // deterministic run digest (I5 replay check)
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
	n := o.Seeds
	if n <= 0 {
		n = cp.Points(0)
	}
	base := cp.BaseSeed(o.Seed)
	d := &ChaosData{Points: make([]ChaosPoint, n)}
	forEach(o, n, func(i int) {
		seed := cp.SeedAt(base, i)
		pt := chaosPoint(cp, seed)
		if i == 0 {
			replay := chaosPoint(cp, seed)
			if replay.Fingerprint != pt.Fingerprint {
				pt.Violations = append(pt.Violations,
					fmt.Sprintf("I5 determinism: replay of seed %d diverged", seed))
				pt.ViolationN++
			}
		}
		d.Points[i] = pt
	})
	return d
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
	pt := ck.point(seed, pool.Timeouts)

	// I6: the hybrid twin — same seed, same plan, push/pull monitoring.
	hyb := chaosHybridTwin(cp, seed, plan)
	pt.HybPushes = hyb.pushes
	pt.HybStaleMaxT = float64(hyb.staleMax) / float64(poll)
	pt.Violations = append(pt.Violations, hyb.violations...)
	pt.ViolationN += hyb.violationN
	pt.Fingerprint += " " + hyb.digest
	return pt
}

// hybridTwinStats is what the I6 twin run reports back.
type hybridTwinStats struct {
	pushes     uint64
	staleMax   sim.Time
	violations []string
	violationN int
	digest     string
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
	in := c.ApplyFaults(plan)

	st := hybridTwinStats{}
	violate := func(format string, args ...any) {
		st.violationN++
		if len(st.violations) < 8 {
			st.violations = append(st.violations, fmt.Sprintf(format, args...))
		}
	}

	eng := c.Eng
	down := make(map[int]bool)
	prevCrash, prevRestart := in.OnCrash, in.OnRestart
	in.OnCrash = func(node int) {
		if prevCrash != nil {
			prevCrash(node)
		}
		down[node] = true
	}
	in.OnRestart = func(node int) {
		if prevRestart != nil {
			prevRestart(node)
		}
		down[node] = false
	}

	warmup := 20 * poll
	stale := sim.Time(chaosStaleSLO) * poll
	ticker := eng.NewTicker(poll, func() {
		now := eng.Now()
		if now < warmup {
			return
		}
		for _, b := range c.Monitor.Backends() {
			if down[b] || planDisturbs(plan, poll, b, now) {
				continue
			}
			_, at, ok := c.Monitor.Latest(b)
			if !ok {
				violate("I6 hybrid staleness: node %d has no record by %v", b, now)
				continue
			}
			if age := now - at; age > st.staleMax {
				st.staleMax = age
			}
			if now-at > stale {
				violate("I6 hybrid staleness: node %d record is %v old at %v", b, now-at, now)
			}
		}
	})
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
	st.digest = fmt.Sprintf("hyb: pushes=%d skips=%d perr=%d rx=%d torn=%d decay=%d stale=%d drop=%d served=%d tmo=%d hviol=%d seqs=%s",
		st.pushes, skips, perrs, rx, torn, decayed, st.staleMax,
		c.Monitor.StalePushes, c.TotalServed(), pool.Timeouts, st.violationN, seqs)
	return st
}

// chaosChecker audits one run against the invariants above.
type chaosChecker struct {
	c           *cluster.Cluster
	plan        faults.Plan
	poll, repin sim.Time

	down      map[int]bool     // crashed and not yet restarted
	downSince map[int]sim.Time // crash instant
	epoch     map[int]int      // agent incarnation (bumped on restart)

	lastSeq  map[int]map[core.Transport]uint32
	seqEpoch map[int]int

	trips     map[int][]sim.Time // breaker trip instants per back-end
	failbacks map[int][]sim.Time

	staleMax   sim.Time
	tripMax    sim.Time // worst measured MR-event trip latency
	fbMax      sim.Time // worst measured MR-event fail-back latency
	violations []string
	violationN int

	ticker *sim.Ticker
}

func newChaosChecker(c *cluster.Cluster, plan faults.Plan, poll, repin sim.Time) *chaosChecker {
	return &chaosChecker{
		c: c, plan: plan, poll: poll, repin: repin,
		down:      make(map[int]bool),
		downSince: make(map[int]sim.Time),
		epoch:     make(map[int]int),
		lastSeq:   make(map[int]map[core.Transport]uint32),
		seqEpoch:  make(map[int]int),
		trips:     make(map[int][]sim.Time),
		failbacks: make(map[int][]sim.Time),
	}
}

func (ck *chaosChecker) violate(format string, args ...any) {
	ck.violationN++
	if len(ck.violations) < 8 {
		ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
	}
}

func (ck *chaosChecker) install(in *faults.Injector) {
	eng := ck.c.Eng
	// Crash/restart bookkeeping rides on the injector's hooks, after
	// the cluster's own handling (hooks are read at fire time, so
	// wrapping after ApplyFaults chains correctly).
	prevCrash, prevRestart := in.OnCrash, in.OnRestart
	in.OnCrash = func(node int) {
		if prevCrash != nil {
			prevCrash(node)
		}
		ck.down[node] = true
		ck.downSince[node] = eng.Now()
	}
	in.OnRestart = func(node int) {
		if prevRestart != nil {
			prevRestart(node)
		}
		ck.down[node] = false
		ck.epoch[node]++
	}

	// I1: audit every routing decision.
	detect := sim.Time(chaosDetectSLO) * ck.poll
	ck.c.Dispatcher.OnRoute = func(b int) {
		if !ck.down[b] || eng.Now() <= ck.downSince[b]+detect {
			return
		}
		if !ck.anyEligible() {
			// The whole fleet looks condemned: uniform fallback over
			// everyone is the policy's documented last resort.
			return
		}
		ck.violate("I1 dispatch: request routed to node %d, down since %v", b, ck.downSince[b])
	}

	for _, b := range ck.c.Monitor.Backends() {
		b := b
		// I3: timestamp breaker transitions.
		fo := ck.c.Monitor.Failover(b)
		fo.OnTrip = func() { ck.trips[b] = append(ck.trips[b], eng.Now()) }
		fo.OnFailBack = func() { ck.failbacks[b] = append(ck.failbacks[b], eng.Now()) }

		// I4: sequence numbers must not regress per (transport,
		// incarnation). A restart resets the agent's counter, so an
		// epoch bump clears the watermarks.
		p := ck.c.Monitor.Probers[b]
		p.OnRecord = func(rec wire.LoadRecord, _ sim.Time) {
			if ck.seqEpoch[b] != ck.epoch[b] {
				ck.seqEpoch[b] = ck.epoch[b]
				ck.lastSeq[b] = nil
			}
			if ck.lastSeq[b] == nil {
				ck.lastSeq[b] = make(map[core.Transport]uint32)
			}
			tr := p.LastTransport
			if last, ok := ck.lastSeq[b][tr]; ok && rec.Seq < last {
				ck.violate("I4 seq: node %d %s seq %d after %d", b, tr, rec.Seq, last)
			}
			ck.lastSeq[b][tr] = rec.Seq
		}
	}

	// I2: staleness sweep each probe period, after a warmup that lets
	// first records land.
	warmup := 20 * ck.poll
	stale := sim.Time(chaosStaleSLO) * ck.poll
	ck.ticker = eng.NewTicker(ck.poll, func() {
		now := eng.Now()
		if now < warmup {
			return
		}
		for _, b := range ck.c.Monitor.Backends() {
			if ck.down[b] || ck.disturbed(b, now) {
				continue
			}
			_, at, ok := ck.c.Monitor.Latest(b)
			if !ok {
				ck.violate("I2 staleness: node %d has no record by %v", b, now)
				continue
			}
			if age := now - at; age > ck.staleMax {
				ck.staleMax = age
			}
			if now-at > stale {
				ck.violate("I2 staleness: node %d record is %v old at %v", b, now-at, now)
			}
		}
	})
}

// disturbed reports whether a fault window (with detection/recovery
// slack) covers back-end b at time at. MR invalidations are pointedly
// absent: surviving one within the staleness SLO is what the failover
// path is for.
func (ck *chaosChecker) disturbed(b int, at sim.Time) bool {
	return planDisturbs(ck.plan, ck.poll, b, at)
}

// planDisturbs is the fault-window predicate shared by the all-pull
// checker (I2) and the hybrid twin (I6): both exempt back-ends inside
// a crash/partition/link window (plus recovery slack) from their
// staleness SLO.
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

func (ck *chaosChecker) point(seed int64, clientTmo uint64) ChaosPoint {
	pt := ChaosPoint{
		Seed:   seed,
		CrashN: len(ck.plan.Crashes), LinkN: len(ck.plan.Links),
		PartN: len(ck.plan.Partitions), MRN: len(ck.plan.MRInvalidations),
		Violations: ck.violations,
		ViolationN: ck.violationN,
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
		ck.violationN, ck.staleMax, ck.tripMax, ck.fbMax, seqs)
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
	total := 0
	for _, p := range d.Points {
		total += p.ViolationN
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
		for _, v := range p.Violations {
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d: %s", p.Seed, v))
		}
	}
	if total > 0 {
		r.Failed = true
		r.Notes = append(r.Notes, fmt.Sprintf("FAILED: %d invariant violation(s)", total))
	} else {
		r.Notes = append(r.Notes, "all invariants held: crashed nodes shed traffic within the detection SLO, surviving nodes stayed within the staleness SLO over whichever transport, every clean MR invalidation tripped and failed back within SLO, sequence numbers never regressed per transport, the hybrid twin kept the same staleness SLO under the same fault plans, and the first seed (both modes) replayed bit-identically")
	}
	return r
}
