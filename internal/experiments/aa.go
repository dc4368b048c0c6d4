package experiments

import (
	"fmt"
	"math/rand"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

func init() {
	register("aa", "active-active front-ends: CAS-claimed dispatch shards, orphan reclamation, aggregate throughput",
		func(o Options) *Result { return AA(o).Result() })
}

// aaReclaimSlack is the allowance, in claim check cycles, added on top
// of ExpireAfter + VacantGrace for the A2 bound: the orphan's last
// renewal lands up to one cycle before the fault, a surviving
// front-end observes the final word value up to one cycle later, its
// bid waits for the next round boundary, and dispatch traffic on its
// node can delay the claim task by a few more cycles.
const aaReclaimSlack = 8

// aaDecisionCost is the per-request front-end CPU in the throughput
// runs. It is deliberately heavy (routing decision + parse at 100us)
// so the dispatcher — not the back-end worker pools — is the
// bottleneck: exactly the regime where a second, third and fourth
// concurrently-dispatching front-end buys aggregate throughput.
const aaDecisionCost = 100 * sim.Microsecond

// AAPoint is one seed's verdict over three runs: a chaos run (claim
// stalls + front-end faults) checking A1/A2, and a fault-free
// throughput pair (active-active vs single-primary) checking A3/A4.
type AAPoint struct {
	Seed   int64
	Stalls int // claim-stall windows in the plan

	Claims       int     // claim epochs acquired across fleet and shards
	ReclaimMaxMS float64 // slowest orphaned-shard reacquisition after an FE fault
	ShardFenced  uint64  // requests refused by the per-shard claim fence
	NotPrimary   uint64  // refused replies observed at the clients
	Served       uint64  // chaos-run requests completed end to end

	ThroughputAA float64 // fault-free req/s, N active-active front-ends
	ThroughputSP float64 // fault-free req/s, same fleet behind one HA primary
	FairMin      float64 // smallest per-front-end share of AA routed requests

	Violations []string
	ViolationN int

	Fingerprint string // deterministic digest of all three runs (A5)
}

// AAData holds the per-seed results.
type AAData struct {
	Points []AAPoint
}

// AA runs the active-active dispatch harness: for each seed it builds
// an N-replica RDMA-Sync cluster whose back-end space is folded onto
// CAS-claimed shard words on the witness (every replica dispatches
// concurrently, each only to back-ends whose shard claim it validly
// holds), applies a fault plan extended with claim-stall windows, and
// checks:
//
//	A1  no double-dispatch: per shard, validity intervals from
//	    different front-ends never overlap, shard epochs are monotone,
//	    and no request is ever routed to a back-end whose shard claim
//	    the routing front-end does not validly hold at that instant;
//	A2  orphan reclamation: every shard validly held by a front-end
//	    hit by a crash, freeze or witness partition is re-acquired
//	    within ExpireAfter + VacantGrace plus a bounded number of
//	    check cycles;
//	A3  the N-front-end active-active fleet sustains at least twice
//	    the throughput of the same fleet behind one HA primary
//	    when the front-end decision cost is the bottleneck;
//	A4  fairness: with claims converged to the home partition, every
//	    front-end routes at least 1/(2N) of the active-active run's
//	    requests;
//	A5  a fixed seed replays bit-identically (checked for the first
//	    seed by running all three simulations twice).
func AA(o Options) *AAData {
	n := o.Seeds
	if n <= 0 {
		n = 5
	}
	d := &AAData{Points: make([]AAPoint, n)}
	forEach(o, n, func(i int) {
		seed := o.seed() + int64(i)*7919
		pt := aaPoint(o, seed)
		if i == 0 {
			replay := aaPoint(o, seed)
			if replay.Fingerprint != pt.Fingerprint {
				pt.Violations = append(pt.Violations,
					fmt.Sprintf("A5 determinism: replay of seed %d diverged", seed))
				pt.ViolationN++
			}
		}
		d.Points[i] = pt
	})
	return d
}

// aaFrontEnds resolves the replica count (flag -frontends).
func aaFrontEnds(o Options) int {
	if o.FrontEnds >= 2 {
		return o.FrontEnds
	}
	return 4
}

// aaClaimConfig resolves the claim knobs (flags -claim-shards and
// -claim-ttl); zeros defer to the cluster defaults.
func aaClaimConfig(o Options) core.ClaimConfig {
	return core.ClaimConfig{
		Shards: o.ClaimShards,
		TTL:    sim.Time(o.ClaimTTLMS) * sim.Millisecond,
	}
}

func aaPoint(o Options, seed int64) AAPoint {
	poll := core.DefaultInterval
	horizon := 20 * sim.Second
	clients := 48
	if o.Quick {
		horizon = 10 * sim.Second
		clients = 32
	}
	fes := aaFrontEnds(o)

	c := cluster.New(cluster.Config{
		Backends:     8,
		Scheme:       core.RDMASync,
		Poll:         poll,
		Seed:         seed,
		Policy:       cluster.PolicyLeastLoad,
		ProbeTimeout: poll,
		Replicas:     fes,
		ActiveActive: true,
		Claim:        aaClaimConfig(o),
	})
	plan := faults.RandomPlan(seed, faults.ChaosConfig{
		Backends:    8,
		Horizon:     horizon,
		FrontEnds:   c.FrontEndIDs(),
		Witness:     c.Witness.ID,
		ClaimStalls: 2,
	})
	c.ApplyFaults(plan)

	ck := newAAChecker(c, plan)
	ck.install()

	pool := c.StartRUBiS(clients, 30*sim.Millisecond, seed+11)
	c.Run(horizon)

	ck.checkOverlaps()
	ck.checkReclaims(horizon)
	pt := ck.point(seed, pool)

	// Fault-free throughput pair: the same fleet dispatch-bound, first
	// active-active, then behind a single HA primary.
	aaTput, fair, aaFP := aaPerfRun(o, seed, fes, true)
	spTput, _, spFP := aaPerfRun(o, seed, fes, false)
	pt.ThroughputAA, pt.ThroughputSP, pt.FairMin = aaTput, spTput, fair
	if aaTput < 2*spTput {
		pt.Violations = append(pt.Violations, fmt.Sprintf(
			"A3 throughput: %d active-active front-ends sustain %.0f req/s, want >= 2x the single-primary %.0f req/s",
			fes, aaTput, spTput))
		pt.ViolationN++
	}
	if fairFloor := 1 / (2 * float64(fes)); fair < fairFloor {
		pt.Violations = append(pt.Violations, fmt.Sprintf(
			"A4 fairness: slowest front-end routed %.3f of requests, want >= %.3f (1/2N)", fair, fairFloor))
		pt.ViolationN++
	}
	pt.Fingerprint += " aa={" + aaFP + "} sp={" + spFP + "}"
	return pt
}

// aaPerfRun measures steady-state throughput of one fleet arrangement:
// N front-ends dispatching concurrently under claims (active) or the
// same topology behind one HA primary (a one-shard claim). Claims settle
// during a client-free warm-up so the measurement starts converged.
// Returns req/s, the smallest per-front-end routed share (active
// only), and a determinism digest.
func aaPerfRun(o Options, seed int64, fes int, active bool) (tput, minShare float64, fp string) {
	poll := core.DefaultInterval
	horizon := 4 * sim.Second
	if o.Quick {
		horizon = 2 * sim.Second
	}
	const clients = 96
	const warmup = 500 * sim.Millisecond

	c := cluster.New(cluster.Config{
		Backends:     8,
		Scheme:       core.RDMASync,
		Poll:         poll,
		Seed:         seed + 101,
		Policy:       cluster.PolicyLeastLoad,
		ProbeTimeout: poll,
		Replicas:     fes,
		ActiveActive: active,
		Claim:        aaClaimConfig(o),
	})
	for _, r := range c.FrontEnds {
		r.Dispatcher.DecisionCost = aaDecisionCost
	}
	c.Run(warmup)

	// Light requests: 100us of back-end CPU, no I/O wait. With the
	// decision cost equal to the service demand and 8x8 workers of
	// back-end capacity, the front-end tier is the bottleneck.
	gen := func(rng *rand.Rand, id uint64, client int, now sim.Time) httpsim.Request {
		return httpsim.Request{
			ID: id, Class: "aa", CPU: 100 * sim.Microsecond,
			Size: 300, Resp: 1200, Client: client, Issued: now,
		}
	}
	pool := c.StartPool(clients, 2*sim.Millisecond, gen, seed+13)
	c.Run(horizon)

	tput = pool.Throughput()
	var total uint64
	routes := ""
	for _, r := range c.FrontEnds {
		total += r.Dispatcher.Routed
	}
	minShare = 1
	for _, r := range c.FrontEnds {
		share := 0.0
		if total > 0 {
			share = float64(r.Dispatcher.Routed) / float64(total)
		}
		if share < minShare {
			minShare = share
		}
		routes += fmt.Sprintf("|%d", r.Dispatcher.Routed)
	}
	fp = fmt.Sprintf("done=%d tmo=%d np=%d served=%d routes=%s",
		pool.Completed, pool.Timeouts, pool.NotPrimary, c.TotalServed(), routes)
	return tput, minShare, fp
}

// aaInterval is one front-end's validity window over one shard epoch:
// opened by an acquire, extended by renewals, truncated by a deposal
// or release (or left at the last renewal's validUntil if the holder
// died or froze holding it).
type aaInterval struct {
	replica    int
	shard      uint16
	epoch      uint16
	start, end sim.Time
}

// aaFault is a front-end fault instant with the shards the victim
// validly held just before it landed.
type aaFault struct {
	at     sim.Time
	kind   string
	victim int
	shards []uint16
}

// aaRetired accumulates counters of managers and dispatchers replaced
// by replica restarts.
type aaRetired struct {
	routed, fenced, shardFenced              uint64
	takeovers, renewals, deposals, handbacks uint64
	casErr, readErr, rounds                  uint64
}

// aaChecker audits one chaos run against invariants A1 and A2.
type aaChecker struct {
	c     *cluster.Cluster
	plan  faults.Plan
	claim core.ClaimConfig

	intervals []*aaInterval          // all validity intervals, in acquire order
	open      map[[2]int]*aaInterval // (replica, shard) -> open interval
	lastEpoch map[uint16]uint16      // shard -> highest epoch acquired
	epochSeen map[uint16]bool

	faults []aaFault

	disp    map[int]*httpsim.Dispatcher
	mgrs    map[int]*core.ClaimManager
	retired aaRetired

	reclaimMax sim.Time
	violations []string
	violationN int
}

func newAAChecker(c *cluster.Cluster, plan faults.Plan) *aaChecker {
	return &aaChecker{
		c:         c,
		plan:      plan,
		claim:     c.Cfg.Claim, // cluster.New resolved the defaults
		open:      make(map[[2]int]*aaInterval),
		lastEpoch: make(map[uint16]uint16),
		epochSeen: make(map[uint16]bool),
		disp:      make(map[int]*httpsim.Dispatcher),
		mgrs:      make(map[int]*core.ClaimManager),
	}
}

func (ck *aaChecker) violate(format string, args ...any) {
	ck.violationN++
	if len(ck.violations) < 8 {
		ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
	}
}

func (ck *aaChecker) install() {
	for _, r := range ck.c.FrontEnds {
		ck.hook(r)
	}
	// A restarted replica comes back with a fresh dispatcher and claim
	// manager; retire the dead objects' counters and re-hook.
	ck.c.OnReplicaRestart = func(r *cluster.Replica) {
		if old := ck.disp[r.Index]; old != nil {
			ck.retired.routed += old.Routed
			ck.retired.fenced += old.Fenced
			ck.retired.shardFenced += old.ShardFenced
		}
		if old := ck.mgrs[r.Index]; old != nil {
			ck.retired.addMgr(old)
		}
		ck.hook(r)
	}

	// A2 observers: capture what the victim validly holds 1ns before
	// each front-end fault lands (the injector's events were scheduled
	// first, so an observer at the fault instant would run after it).
	reps := make(map[int]*cluster.Replica)
	for _, r := range ck.c.FrontEnds {
		reps[r.Node.ID] = r
	}
	observe := func(at sim.Time, kind string, victim int) {
		ck.c.Eng.After(at-1*sim.Nanosecond, func() {
			r := reps[victim]
			if r == nil || r.Down() || r.ClaimMgr == nil {
				return
			}
			f := aaFault{at: at, kind: kind, victim: victim}
			now := ck.c.Eng.Now()
			for s := 0; s < r.ClaimMgr.Shards(); s++ {
				if r.ClaimMgr.Valid(s, now) {
					f.shards = append(f.shards, uint16(s))
				}
			}
			ck.faults = append(ck.faults, f)
		})
	}
	for _, cr := range ck.plan.Crashes {
		if reps[cr.Node] != nil {
			observe(cr.At, "crash", cr.Node)
		}
	}
	for _, fz := range ck.plan.Freezes {
		if reps[fz.Node] != nil {
			observe(fz.At, "freeze", fz.Node)
		}
	}
	for _, pa := range ck.plan.Partitions {
		if len(pa.A) == 1 && reps[pa.A[0]] != nil && len(pa.B) == 1 && pa.B[0] == ck.c.Witness.ID {
			observe(pa.Start, "partition", pa.A[0])
		}
	}
}

// addMgr folds a claim manager's counters into the totals.
func (t *aaRetired) addMgr(m *core.ClaimManager) {
	tk, rn, dp, hb := m.Counters()
	t.takeovers += tk
	t.renewals += rn
	t.deposals += dp
	t.handbacks += hb
	t.casErr += m.CASErrors
	t.readErr += m.ReadErrors
	t.rounds += m.Rounds
}

// hook installs the claim observers and the A1 route audit on one
// replica's (possibly fresh) objects.
func (ck *aaChecker) hook(r *cluster.Replica) {
	idx := r.Index
	mgr := r.ClaimMgr
	ck.disp[idx] = r.Dispatcher
	ck.mgrs[idx] = mgr

	for _, cl := range mgr.Claims {
		cl := cl
		cl.OnAcquire = func(shard, epoch uint16, now, validUntil sim.Time) {
			if ck.epochSeen[shard] && epoch <= ck.lastEpoch[shard] {
				ck.violate("A1 epoch: replica %d acquired shard %d epoch %d after epoch %d was taken",
					idx, shard, epoch, ck.lastEpoch[shard])
			} else {
				ck.lastEpoch[shard] = epoch
				ck.epochSeen[shard] = true
			}
			e := &aaInterval{replica: idx, shard: shard, epoch: epoch, start: now, end: validUntil}
			ck.open[[2]int{idx, int(shard)}] = e
			ck.intervals = append(ck.intervals, e)
		}
		cl.OnRenew = func(shard, epoch uint16, now, validUntil sim.Time) {
			if e := ck.open[[2]int{idx, int(shard)}]; e != nil && validUntil > e.end {
				e.end = validUntil
			}
		}
		closeAt := func(shard uint16, now sim.Time) {
			key := [2]int{idx, int(shard)}
			if e := ck.open[key]; e != nil {
				if e.end > now {
					e.end = now
				}
				ck.open[key] = nil
			}
		}
		cl.OnDepose = func(shard, epoch uint16, now sim.Time) { closeAt(shard, now) }
		cl.OnRelease = func(shard, epoch uint16, now sim.Time) { closeAt(shard, now) }
	}

	// A1 route audit: every request forwarded by this replica must go
	// to a back-end whose shard claim it validly holds at that instant.
	// The BackendFence is what should make this true; auditing at
	// OnRoute (after the fence, before the forward) catches any leak.
	r.Dispatcher.OnRoute = func(b int) {
		if !mgr.Valid(ck.c.ShardOf(b), ck.c.Eng.Now()) {
			ck.violate("A1 fence: replica %d routed to back-end %d without holding shard %d at %v",
				idx, b, ck.c.ShardOf(b), ck.c.Eng.Now())
		}
	}
}

// checkOverlaps runs A1's interval half after the run: per shard, no
// two validity intervals from different front-ends may overlap.
func (ck *aaChecker) checkOverlaps() {
	for i, a := range ck.intervals {
		for _, b := range ck.intervals[i+1:] {
			if a.replica == b.replica || a.shard != b.shard {
				continue
			}
			if a.start < b.end && b.start < a.end {
				ck.violate("A1 double-hold: shard %d replica %d epoch %d [%v, %v] overlaps replica %d epoch %d [%v, %v]",
					a.shard, a.replica, a.epoch, a.start, a.end, b.replica, b.epoch, b.start, b.end)
			}
		}
	}
}

// checkReclaims runs A2 after the run: every shard the victim of a
// front-end fault validly held must be re-acquired (by any front-end,
// the restarted victim included) within the reclaim bound. Faults
// whose window is truncated by the horizon are skipped.
func (ck *aaChecker) checkReclaims(horizon sim.Time) {
	bound := ck.claim.ExpireAfter + ck.claim.VacantGrace + aaReclaimSlack*ck.claim.CheckEvery
	for _, f := range ck.faults {
		if f.at+bound > horizon {
			continue
		}
		for _, s := range f.shards {
			var won sim.Time
			found := false
			for _, e := range ck.intervals {
				if e.shard == s && e.start > f.at {
					won, found = e.start, true
					break
				}
			}
			if !found || won-f.at > bound {
				ck.violate("A2 reclaim: %s of front-end %d at %v orphaned shard %d, not re-acquired within %v",
					f.kind, f.victim, f.at, s, bound)
				continue
			}
			if lat := won - f.at; lat > ck.reclaimMax {
				ck.reclaimMax = lat
			}
		}
	}
}

func (ck *aaChecker) point(seed int64, pool *workload.ClientPool) AAPoint {
	// Stall windows: every freeze on this plan lands on a front-end,
	// as does every single-node partition against the witness.
	stalls := len(ck.plan.Freezes)
	for _, pa := range ck.plan.Partitions {
		if len(pa.A) == 1 && len(pa.B) == 1 && pa.B[0] == ck.c.Witness.ID {
			stalls++
		}
	}
	pt := AAPoint{
		Seed:         seed,
		Stalls:       stalls,
		Claims:       len(ck.intervals),
		ReclaimMaxMS: float64(ck.reclaimMax) / float64(sim.Millisecond),
		NotPrimary:   pool.NotPrimary,
		Served:       ck.c.TotalServed(),
		Violations:   ck.violations,
		ViolationN:   ck.violationN,
	}

	tot := ck.retired
	for _, r := range ck.c.FrontEnds {
		if d := ck.disp[r.Index]; d != nil {
			tot.routed += d.Routed
			tot.fenced += d.Fenced
			tot.shardFenced += d.ShardFenced
		}
		tot.addMgr(r.ClaimMgr)
	}
	pt.ShardFenced = tot.shardFenced

	// The fingerprint digests everything the chaos run produced, so an
	// A5 replay mismatch catches any nondeterminism, not just one that
	// changed a headline number.
	spans := ""
	for _, e := range ck.intervals {
		spans += fmt.Sprintf("|%d:%d:%d@%d-%d", e.replica, e.shard, e.epoch, e.start, e.end)
	}
	pt.Fingerprint = fmt.Sprintf(
		"served=%d routed=%d sfenced=%d fenced=%d notprim=%d retgt=%d tmo=%d take=%d renew=%d dep=%d hand=%d caserr=%d readerr=%d rounds=%d viol=%d rmax=%d spans=%s",
		pt.Served, tot.routed, tot.shardFenced, tot.fenced, pt.NotPrimary, pool.Retargets, pool.Timeouts,
		tot.takeovers, tot.renewals, tot.deposals, tot.handbacks, tot.casErr, tot.readErr, tot.rounds,
		pt.ViolationN, ck.reclaimMax, spans)
	return pt
}

// Result renders the active-active table.
func (d *AAData) Result() *Result {
	r := &Result{
		ID:    "aa",
		Title: "Active-active front-ends: claim-arbitrated dispatch under claim stalls, vs single-primary throughput",
		Columns: []string{"seed", "stalls", "claims", "reclaim(ms)", "sfenced",
			"notprim", "served", "aa(req/s)", "sp(req/s)", "x", "fairmin", "viol"},
	}
	total := 0
	for _, p := range d.Points {
		total += p.ViolationN
		ratio := 0.0
		if p.ThroughputSP > 0 {
			ratio = p.ThroughputAA / p.ThroughputSP
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Seed),
			fmt.Sprintf("%d", p.Stalls),
			fmt.Sprintf("%d", p.Claims),
			f1(p.ReclaimMaxMS),
			fmt.Sprintf("%d", p.ShardFenced),
			fmt.Sprintf("%d", p.NotPrimary),
			fmt.Sprintf("%d", p.Served),
			fmt.Sprintf("%.0f", p.ThroughputAA),
			fmt.Sprintf("%.0f", p.ThroughputSP),
			f2(ratio),
			f2(p.FairMin),
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
		r.Notes = append(r.Notes, "all invariants held: no shard was validly held by two front-ends at once and every routed request went out under a validly held claim, every orphaned shard was re-acquired within the reclaim bound, the active-active fleet at least doubled single-primary throughput, every front-end carried at least half its fair share, and the first seed replayed bit-identically")
	}
	return r
}
