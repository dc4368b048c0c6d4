package experiments

import (
	"fmt"
	"math/rand"

	"rdmamon/internal/cluster"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
)

func init() {
	register("aa", "active-active front-ends: CAS-claimed dispatch shards, orphan reclamation, aggregate throughput",
		func(o Options) *Result { return AA(o).Result() })
}

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
	runAudit     // seed, violations, A5 replay fingerprint of all three runs
	Stalls   int // claim-stall windows in the plan

	Claims       int     // claim epochs acquired across fleet and shards
	ReclaimMaxMS float64 // slowest orphaned-shard reacquisition after an FE fault
	ShardFenced  uint64  // requests refused by the per-shard claim fence
	NotPrimary   uint64  // refused replies observed at the clients
	Served       uint64  // chaos-run requests completed end to end

	ThroughputAA float64 // fault-free req/s, N active-active front-ends
	ThroughputSP float64 // fault-free req/s, same fleet behind one HA primary
	FairMin      float64 // smallest per-front-end share of AA routed requests
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
//
// A1 and A2 are the claim audit HA shares (auditClaims), whose reclaim
// bound adds VacantGrace here only; the audit also checks HA's H6 on
// the chaos run. A5 is sweepSeeds' replay.
func AA(o Options) *AAData {
	return aaScenario(compileBuiltin(scenario.BuiltinAA(), o.Quick), o)
}

// aaScenario runs the active-active invariant checker over a compiled
// scenario — the one driver behind both `-exp aa` (via BuiltinAA,
// bit-identical plans) and `-scenario` files with `checks: aa`.
func aaScenario(cp *scenario.Compiled, o Options) *AAData {
	return &AAData{Points: sweepSeeds(o, cp.Points(o.Seeds), cp.BaseSeed(o.Seed), "A5",
		func(seed int64) AAPoint { return aaPoint(cp, o.Quick, seed) })}
}

func aaPoint(cp *scenario.Compiled, quick bool, seed int64) AAPoint {
	c, plan, a, pool := claimChaosRun(cp, seed)

	// Stall windows: every freeze on this plan lands on a front-end,
	// as does every single-node partition against the witness.
	stalls := len(plan.Freezes)
	for _, pa := range plan.Partitions {
		if len(pa.A) == 1 && len(pa.B) == 1 && pa.B[0] == c.Witness.ID {
			stalls++
		}
	}
	pt := AAPoint{
		runAudit:     a.runAudit,
		Stalls:       stalls,
		Claims:       len(a.intervals),
		ReclaimMaxMS: float64(a.reclaimMax) / float64(sim.Millisecond),
		ShardFenced:  a.totals().shardFenced,
		NotPrimary:   pool.NotPrimary,
		Served:       c.TotalServed(),
	}
	pt.Fingerprint = a.fingerprint(pool)

	// Fault-free throughput pair: the same fleet dispatch-bound, first
	// active-active, then behind a single HA primary.
	fes := cp.S.Replicas
	aaTput, fair, aaFP := aaPerfRun(cp, quick, seed, true)
	spTput, _, spFP := aaPerfRun(cp, quick, seed, false)
	pt.ThroughputAA, pt.ThroughputSP, pt.FairMin = aaTput, spTput, fair
	if aaTput < 2*spTput {
		pt.violate("A3 throughput: %d active-active front-ends sustain %.0f req/s, want >= 2x the single-primary %.0f req/s",
			fes, aaTput, spTput)
	}
	if fairFloor := 1 / (2 * float64(fes)); fair < fairFloor {
		pt.violate("A4 fairness: slowest front-end routed %.3f of requests, want >= %.3f (1/2N)", fair, fairFloor)
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
func aaPerfRun(cp *scenario.Compiled, quick bool, seed int64, active bool) (tput, minShare float64, fp string) {
	horizon := 4 * sim.Second
	if quick {
		horizon = 2 * sim.Second
	}
	const clients = 96
	const warmup = 500 * sim.Millisecond

	cfg := cp.ClusterConfig(seed+101, "")
	cfg.ActiveActive = active
	c := cluster.New(cfg)
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

// Result renders the active-active table.
func (d *AAData) Result() *Result {
	r := &Result{
		ID:    "aa",
		Title: "Active-active front-ends: claim-arbitrated dispatch under claim stalls, vs single-primary throughput",
		Columns: []string{"seed", "stalls", "claims", "reclaim(ms)", "sfenced",
			"notprim", "served", "aa(req/s)", "sp(req/s)", "x", "fairmin", "viol"},
	}
	for _, p := range d.Points {
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
	}
	noteVerdict(r, d.Points, "all invariants held: no shard was validly held by two front-ends at once and every routed request went out under a validly held claim, every orphaned shard was re-acquired within the reclaim bound, the active-active fleet at least doubled single-primary throughput, every front-end carried at least half its fair share, and the first seed replayed bit-identically")
	return r
}
