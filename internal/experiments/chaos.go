package experiments

import (
	"fmt"

	"rdmamon/internal/core"
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
	// schedule retests every 4th fallback cycle and needs 2 consecutive
	// successes (core's reArmEvery, failBackAfter), all under sweep
	// stretching.
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
	return chaosScenario(compileBuiltin(scenario.BuiltinChaos(), o.Quick), o)
}

// chaosScenario runs the chaos invariant checker over a compiled
// scenario — the one driver behind both the legacy `-exp chaos` flags
// (via BuiltinChaos, bit-identical plans) and `-scenario` files with
// `checks: chaos`.
func chaosScenario(cp *scenario.Compiled, o Options) *ChaosData {
	return &ChaosData{Points: sweepSeeds(cp, o, 1, "I5 determinism",
		func(_ int, seed int64) ChaosPoint { return chaosPoint(cp, seed) })}
}

func chaosPoint(cp *scenario.Compiled, seed int64) ChaosPoint {
	ck := newChaosChecker(cp.Poll, cp.MRRepin)
	runFaulted(cp, cp.ClusterConfig(seed, ""), ck.install)
	ck.checkMREvents(cp.Horizon)
	pt := ck.point()

	// I6: the hybrid twin — same seed, same plan, push/pull monitoring,
	// violations recorded beside the main run's.
	pushes, staleMax, fp := chaosHybridTwin(cp, seed, &pt.violations)
	pt.HybPushes, pt.HybStaleMaxT = pushes, float64(staleMax)/float64(cp.Poll)
	pt.Fingerprint += " " + fp
	return pt
}

// chaosHybridTwin replays the seed's fault plan against a cluster
// running the hybrid push/pull scheme and audits I6 into v: every
// undisturbed back-end stays within the staleness SLO even though
// quiet back-ends are probed at a decayed period and rely on delta
// pushes landing in the front-end aggregation region. The twin's
// period ceiling (4T) and heartbeat (6T) are chosen so the all-pull
// staleness SLO (10T) is still the contract, not a relaxed one.
// Crashes kill pushers mid-delta, MR invalidations tear down the
// aggregation slots, and partitions strand decayed back-ends — all
// from the same plan the all-pull run survived. It returns the twin's
// delta pushes, its worst undisturbed record age and its digest.
func chaosHybridTwin(cp *scenario.Compiled, seed int64, v *violations) (pushes uint64, staleMax sim.Time, fp string) {
	poll := cp.Poll
	cfg := cp.ClusterConfig(seed, "")
	cfg.Hybrid = &core.HybridConfig{
		Period:    core.PeriodConfig{Min: poll, Max: 4 * poll},
		Heartbeat: 6 * poll,
		Check:     poll,
	}
	viol0 := v.Count
	r := runFaulted(cp, cfg, func(r *faultRun) {
		sampleStaleness(r, poll, staleAudit(v, "I6 hybrid", poll, &staleMax))
	})
	c := r.c

	var skips, perrs uint64
	for _, p := range c.Pushers {
		if p != nil {
			pushes += p.Pushes
			skips += p.Skips
			perrs += p.Errors
		}
	}
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
	return pushes, staleMax, fmt.Sprintf("hyb: pushes=%d skips=%d perr=%d rx=%d torn=%d decay=%d stale=%d drop=%d served=%d tmo=%d hviol=%d seqs=%s",
		pushes, skips, perrs, rx, torn, c.Monitor.Decayed, staleMax,
		c.Monitor.StalePushes, c.TotalServed(), r.pool.Timeouts, v.Count-viol0, seqs)
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

func (ck *chaosChecker) point() ChaosPoint {
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
		ck.c.TotalServed(), ck.c.Dispatcher.Routed, ck.pool.Timeouts, ck.c.Monitor.Cycles,
		ck.Count, ck.staleMax, ck.tripMax, ck.fbMax, seqs)
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
			fmt.Sprintf("%d", p.Count),
		})
	}
	noteVerdict(r, d.Points, "all invariants held: crashed nodes shed traffic within the detection SLO, surviving nodes stayed within the staleness SLO over whichever transport, every clean MR invalidation tripped and failed back within SLO, sequence numbers never regressed per transport, the hybrid twin kept the same staleness SLO under the same fault plans, and the first seed (both modes) replayed bit-identically")
	return r
}
