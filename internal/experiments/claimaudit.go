package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/sim"
	"rdmamon/internal/workload"
)

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

// auditClaims hooks a claimAudit into a replicated cluster and
// observes plan's front-end faults. One fact, Cfg.ActiveActive, picks
// the check names and adds VacantGrace to the reclaim bound: only
// active-active has foreign bidders, which wait it out.
func auditClaims(c *cluster.Cluster, plan faults.Plan) *claimAudit {
	cfg := c.Cfg.Claim // cluster.New resolved the defaults
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
		a.bound += cfg.VacantGrace
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
		a.ViolationN, a.reclaimMax, spans)
}
