package experiments

import (
	"fmt"

	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
)

func init() {
	register("ha", "warm-standby front-ends: leased primaryship and epoch fencing under front-end faults",
		func(o Options) *Result { return HA(o).Result() })
}

// HAPoint is one seed's run of a 3-replica HA cluster under a fault
// plan that includes front-end crashes, freezes and witness partitions.
type HAPoint struct {
	runAudit                   // seed, violations, H5 replay fingerprint
	FECrash, FEFrz, FEPart int // plan shape (front-end faults)

	Epochs        int     // claim epochs acquired across the fleet
	TakeoverMaxMS float64 // slowest measured primary-fault -> new-epoch handoff
	Fenced        uint64  // requests refused by the claim fence
	NotPrimary    uint64  // fenced replies observed at the clients
	Retargets     uint64  // client rotations to another replica
	Served        uint64  // requests completed end to end
	BackendTasks  int     // agent-side tasks (must stay 0 under RDMA-Sync)
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
//
// H1-H4 and H6 are the claim audit active-active shares (auditClaims)
// over the one-shard table; H5 is sweepSeeds' replay.
func HA(o Options) *HAData {
	return haScenario(compileBuiltin(scenario.BuiltinHA(), o.Quick), o)
}

// haScenario runs the HA invariant checker over a compiled scenario —
// the one driver behind both the legacy `-exp ha` flags (via
// BuiltinHA, bit-identical plans) and `-scenario` files with
// `checks: ha`.
func haScenario(cp *scenario.Compiled, o Options) *HAData {
	return &HAData{Points: sweepSeeds(o, cp.Points(o.Seeds), cp.BaseSeed(o.Seed), "H5",
		func(seed int64) HAPoint { return haPoint(cp, seed) })}
}

func haPoint(cp *scenario.Compiled, seed int64) HAPoint {
	// Failover (the socket standby) is deliberately off in the builtin:
	// every probe in this experiment is one-sided, so H6 measures the
	// pure cost of two extra shadow monitors — which must be zero.
	c, plan, a, pool := claimChaosRun(cp, seed)

	feCrash := 0
	for _, cr := range plan.Crashes {
		if intsHave(c.FrontEndIDs(), cr.Node) {
			feCrash++
		}
	}
	fePart := 0
	for _, pa := range plan.Partitions {
		if len(pa.B) == 1 && pa.B[0] == c.Witness.ID {
			fePart++
		}
	}
	pt := HAPoint{
		runAudit: a.runAudit,
		FECrash:  feCrash, FEFrz: len(plan.Freezes), FEPart: fePart,
		Epochs:        len(a.intervals),
		TakeoverMaxMS: float64(a.reclaimMax) / float64(sim.Millisecond),
		Fenced:        a.totals().fenced,
		NotPrimary:    pool.NotPrimary,
		Retargets:     pool.Retargets,
		Served:        c.TotalServed(),
		BackendTasks:  a.backendTasks,
	}
	pt.Fingerprint = a.fingerprint(pool)
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
	for _, p := range d.Points {
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
	}
	noteVerdict(r, d.Points, "all invariants held: at most one epoch-valid dispatcher at any instant, zero routes under an invalid lease, every primary fault handed off within the takeover bound, epochs stayed globally monotone, the first seed replayed bit-identically, and back-end agents ran zero tasks throughout")
	return r
}
