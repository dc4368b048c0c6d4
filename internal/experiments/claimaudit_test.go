package experiments

import (
	"strings"
	"testing"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
)

// claimFixture is an unrun replicated cluster with the claim audit
// hooked in: HA (three replicas, one shard) or active-active (four
// replicas, four shards). Histories are fed through the claims'
// observer hooks and the dispatchers' route hook, the same entry
// points a run drives.
type claimFixture struct {
	c *cluster.Cluster
	a *claimAudit
	s uint16 // the shard under test: the table's last
}

func newClaimFixture(t *testing.T, aa bool, scheme core.Scheme) *claimFixture {
	t.Helper()
	cfg := cluster.Config{Backends: 8, Scheme: scheme, Seed: 1, Replicas: 3}
	wantShards := 1
	if aa {
		cfg.Replicas, cfg.ActiveActive, cfg.Claim.Shards = 4, true, 4
		wantShards = 4
	}
	c := cluster.New(cfg)
	if got := c.Cfg.Claim.Shards; got != wantShards {
		t.Fatalf("claim table has %d shards, want %d", got, wantShards)
	}
	return &claimFixture{c: c, a: auditClaims(c, faults.Plan{}), s: uint16(c.Cfg.Claim.Shards - 1)}
}

func (f *claimFixture) claim(replica int, shard uint16) *core.Claim {
	return f.c.FrontEnds[replica].ClaimMgr.Claims[shard]
}

func (f *claimFixture) acquire(replica int, epoch uint16, at, until sim.Time) {
	f.claim(replica, f.s).OnAcquire(f.s, epoch, at, until)
}

func (f *claimFixture) renew(replica int, epoch uint16, at, until sim.Time) {
	f.claim(replica, f.s).OnRenew(f.s, epoch, at, until)
}

func (f *claimFixture) depose(replica int, epoch uint16, at sim.Time) {
	f.claim(replica, f.s).OnDepose(f.s, epoch, at)
}

// crash records a fault on replica's node that found it holding the
// shard under test.
func (f *claimFixture) crash(replica int, at sim.Time) {
	f.a.faults = append(f.a.faults, claimFault{at: at, kind: "crash",
		victim: f.c.FrontEnds[replica].Node.ID, shards: []uint16{f.s}})
}

// TestClaimAuditFires feeds the merged claim audit synthetic histories
// over a one-shard (HA) and a four-shard (active-active) table. Each
// broken history must raise exactly one violation under that table's
// name for the check, and a clean one none. The reclaim bound is
// recomputed here from the resolved claim config: ExpireAfter plus
// eight check cycles, plus VacantGrace under active-active only.
func TestClaimAuditFires(t *testing.T) {
	const ms = sim.Millisecond
	const horizon = 20 * sim.Second
	rows := []struct {
		name    string
		history func(f *claimFixture, bound sim.Time)
		want    [2]string // violation under HA, under active-active; "" = none
	}{
		{"clean", func(f *claimFixture, bound sim.Time) {
			f.acquire(0, 1, 0, 300*ms)
			f.renew(0, 1, 250*ms, 550*ms)
			f.crash(0, 400*ms)
			f.acquire(1, 2, 400*ms+bound, 400*ms+bound+300*ms)
			f.depose(1, 2, 400*ms+bound+100*ms)
			f.acquire(2, 3, 400*ms+bound+100*ms, 400*ms+bound+400*ms)
			if f.s > 0 {
				// Another shard held alongside is no overlap.
				f.claim(1, 0).OnAcquire(0, 1, 0, horizon)
			}
		}, [2]string{"", ""}},
		{"overlap", func(f *claimFixture, _ sim.Time) {
			f.acquire(0, 1, 0, 600*ms)
			f.acquire(1, 2, 300*ms, 900*ms)
		}, [2]string{"H1 split-brain", "A1 double-hold"}},
		{"epoch", func(f *claimFixture, _ sim.Time) {
			f.acquire(0, 2, 0, 300*ms)
			f.depose(0, 2, 300*ms)
			f.acquire(1, 2, 400*ms, 700*ms)
		}, [2]string{"H4 epoch", "A1 epoch"}},
		{"route", func(f *claimFixture, _ sim.Time) {
			// Nothing is held at instant 0 of an unrun cluster.
			f.c.FrontEnds[0].Dispatcher.OnRoute(int(f.s) + 1)
		}, [2]string{"H2 fence", "A1 fence"}},
		{"late", func(f *claimFixture, bound sim.Time) {
			f.acquire(0, 1, 0, 300*ms)
			f.crash(0, 100*ms)
			if f.s > 0 {
				// Another shard won in time does not reclaim this one.
				f.claim(2, 0).OnAcquire(0, 1, 200*ms, 500*ms)
			}
			f.acquire(1, 2, 100*ms+bound+1, 100*ms+bound+300*ms)
		}, [2]string{"H3 takeover", "A2 reclaim"}},
		{"vacant-grace", func(f *claimFixture, _ sim.Time) {
			// Past ExpireAfter + 8 cycles but inside VacantGrace on top.
			cl := f.c.Cfg.Claim
			late := cl.ExpireAfter + 8*cl.CheckEvery + 1
			f.acquire(0, 1, 0, 300*ms)
			f.crash(0, 100*ms)
			f.acquire(1, 2, 100*ms+late, 100*ms+late+300*ms)
		}, [2]string{"H3 takeover", ""}},
	}
	for _, row := range rows {
		for i, aa := range []bool{false, true} {
			f := newClaimFixture(t, aa, core.RDMASync)
			cl := f.c.Cfg.Claim
			bound := cl.ExpireAfter + 8*cl.CheckEvery
			if aa {
				bound += cl.VacantGrace
			}
			row.history(f, bound)
			f.a.finish(horizon)
			want := row.want[i]
			switch {
			case want == "" && f.a.ViolationN != 0:
				t.Errorf("%s shards=%d: %d violation(s), want none: %q", row.name, f.s+1, f.a.ViolationN, f.a.Violations)
			case want != "" && (f.a.ViolationN != 1 || !strings.HasPrefix(f.a.Violations[0], want+":")):
				t.Errorf("%s shards=%d: %d violation(s) %q, want exactly one %q", row.name, f.s+1, f.a.ViolationN, f.a.Violations, want)
			}
		}
	}
}

// TestClaimAuditZeroCost: the audit's H6 check fires on every
// replicated run whose back-end agents run tasks, HA and
// active-active alike; a socket scheme's agents do.
func TestClaimAuditZeroCost(t *testing.T) {
	for _, aa := range []bool{false, true} {
		f := newClaimFixture(t, aa, core.SocketSync)
		f.a.finish(sim.Second)
		if f.a.ViolationN != 1 || !strings.HasPrefix(f.a.Violations[0], "H6 zero-cost:") {
			t.Errorf("active-active=%v: %d violation(s) %q, want exactly one H6", aa, f.a.ViolationN, f.a.Violations)
		}
	}
}
