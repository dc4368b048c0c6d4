package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// TestGrid: grid's means, from its parallel fan-out, equal a hand fold
// in (scheme, i, rep) order, compared with ==. The values are chosen so
// that the float sum depends on the order, which the full-scale figures
// (reps = 3) rely on to stay bit-stable; the quick goldens run reps = 1
// and cannot see it.
func TestGrid(t *testing.T) {
	schemes := []core.Scheme{core.SocketAsync, core.RDMASync}
	const n, reps = 3, 3
	point := func(s core.Scheme, i, rep int) []float64 {
		big := 1e17 + float64(s)*64
		return []float64{
			[]float64{0.1 * float64(i+1), big, -big}[rep],
			[]float64{-big, 0.3 * float64(i+2), big}[rep],
		}
	}
	want := make([]map[core.Scheme][]float64, 2)
	reversed := make([]map[core.Scheme][]float64, 2)
	for k := range want {
		want[k] = make(map[core.Scheme][]float64)
		reversed[k] = make(map[core.Scheme][]float64)
		for _, s := range schemes {
			want[k][s] = make([]float64, n)
			reversed[k][s] = make([]float64, n)
			for i := 0; i < n; i++ {
				for rep := 0; rep < reps; rep++ {
					want[k][s][i] += point(s, i, rep)[k] / reps
					reversed[k][s][i] += point(s, i, reps-1-rep)[k] / reps
				}
			}
		}
	}
	if reflect.DeepEqual(want, reversed) {
		t.Fatal("fixture is order-insensitive: the test would not catch a reordered fold")
	}
	got := grid(schemes, n, reps, point)
	if len(got) != len(want) {
		t.Fatalf("%d values per point, want %d", len(got), len(want))
	}
	for k := range want {
		for _, s := range schemes {
			for i := 0; i < n; i++ {
				if got[k][s][i] != want[k][s][i] {
					t.Errorf("value %d %v i=%d: %v, want %v", k, s, i, got[k][s][i], want[k][s][i])
				}
			}
		}
	}
}

// TestWatchSeqs drives the I4 audit through the probers' record hook:
// watermarks are per back-end, per transport and per agent incarnation,
// and also sees every record, regressions included.
func TestWatchSeqs(t *testing.T) {
	c := cluster.New(cluster.Config{Backends: 2, Scheme: core.RDMASync, Seed: 1, NoServers: true})
	restarts := make(map[int]int)
	var regressions []string
	seen := 0
	watchSeqs(c, restarts, func(b int, tr core.Transport, seq, last uint32) {
		regressions = append(regressions, fmt.Sprintf("%d %v %d<%d", b, tr, seq, last))
	}, func(b int, rec wire.LoadRecord, at sim.Time) {
		if at != sim.Time(rec.Seq) {
			t.Errorf("also: back-end %d record %d arrived at %v", b, rec.Seq, at)
		}
		seen++
	})
	feed := func(b int, tr core.Transport, seq uint32) {
		p := c.Monitor.Probers[b]
		p.LastTransport = tr
		p.OnRecord(wire.LoadRecord{Seq: seq}, sim.Time(seq))
	}
	feed(1, core.TransportRDMA, 5)
	feed(1, core.TransportSocket, 3) // another transport: its own watermark
	feed(1, core.TransportRDMA, 3)   // the same seq on RDMA: a regression
	feed(2, core.TransportRDMA, 1)   // another back-end: its own watermark
	restarts[1]++
	feed(1, core.TransportRDMA, 1) // a new incarnation restarts the count
	feed(1, core.TransportRDMA, 0) // regression within the new incarnation

	want := []string{
		fmt.Sprintf("1 %v 3<5", core.TransportRDMA),
		fmt.Sprintf("1 %v 0<1", core.TransportRDMA),
	}
	if !reflect.DeepEqual(regressions, want) {
		t.Errorf("regressions %q, want %q", regressions, want)
	}
	if seen != 6 {
		t.Errorf("also saw %d records, want 6", seen)
	}
}

// claimFixture is an unrun replicated cluster with the claim audit
// hooked in: HA (three replicas, one shard) or active-active (four
// replicas, one shard per back-end). Histories are fed through the claims'
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
		cfg.Replicas, cfg.ActiveActive = 4, true
		wantShards = cfg.Backends
	}
	c := cluster.New(cfg)
	if got := c.Claim.Shards; got != wantShards {
		t.Fatalf("claim table has %d shards, want %d", got, wantShards)
	}
	return &claimFixture{c: c, a: auditClaims(c, faults.Plan{}), s: uint16(c.Claim.Shards - 1)}
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
			cl := f.c.Claim
			late := cl.ExpireAfter + 8*cl.CheckEvery + 1
			f.acquire(0, 1, 0, 300*ms)
			f.crash(0, 100*ms)
			f.acquire(1, 2, 100*ms+late, 100*ms+late+300*ms)
		}, [2]string{"H3 takeover", ""}},
	}
	for _, row := range rows {
		for i, aa := range []bool{false, true} {
			f := newClaimFixture(t, aa, core.RDMASync)
			cl := f.c.Claim
			bound := cl.ExpireAfter + 8*cl.CheckEvery
			if aa {
				bound += cl.VacantGrace()
			}
			row.history(f, bound)
			f.a.finish(horizon)
			want := row.want[i]
			switch {
			case want == "" && f.a.Count != 0:
				t.Errorf("%s shards=%d: %d violation(s), want none: %q", row.name, f.s+1, f.a.Count, f.a.Notes)
			case want != "" && (f.a.Count != 1 || !strings.HasPrefix(f.a.Notes[0], want+":")):
				t.Errorf("%s shards=%d: %d violation(s) %q, want exactly one %q", row.name, f.s+1, f.a.Count, f.a.Notes, want)
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
		if f.a.Count != 1 || !strings.HasPrefix(f.a.Notes[0], "H6 zero-cost:") {
			t.Errorf("active-active=%v: %d violation(s) %q, want exactly one H6", aa, f.a.Count, f.a.Notes)
		}
	}
}

// TestPlanWindows pins every boundary of the one plan-window query on
// each window kind. In point form (the staleness samplers: a poll
// before, ten after) a window [S, E) covers S−poll through E+10·poll−1
// inclusive; in interval form (I3's attribution, no widening) it
// overlaps [from, to) only when S < to and E > from. Each boundary is
// queried at itself and ±1ns, for a back-end the window touches and
// one it does not; an MR invalidation is never a window.
func TestPlanWindows(t *testing.T) {
	const b, other = 3, 4
	const S, E = sim.Second, 2 * sim.Second
	const poll = 10 * sim.Millisecond
	pre, post := poll, 10*poll
	plans := map[string]faults.Plan{
		"crash":       {Crashes: []faults.Crash{{Node: b, At: S, RestartAt: E}}},
		"partition A": {Partitions: []faults.Partition{{Start: S, End: E, A: []int{b}, B: []int{0}}}},
		"partition B": {Partitions: []faults.Partition{{Start: S, End: E, A: []int{0}, B: []int{b}}}},
		"link":        {Links: []faults.LinkFault{{From: 0, To: b, Start: S, End: E}}},
	}
	point := []struct {
		at   sim.Time
		want bool
	}{
		{S - pre - 1, false}, {S - pre, true}, {S - pre + 1, true},
		{E + post - 1, true}, {E + post, false}, {E + post + 1, false},
	}
	interval := []struct {
		from, to sim.Time
		want     bool
	}{
		{S - sim.Second, S - 1, false}, {S - sim.Second, S, false}, {S - sim.Second, S + 1, true},
		{E - 1, E + sim.Second, true}, {E, E + sim.Second, false}, {E + 1, E + sim.Second, false},
	}
	for name, plan := range plans {
		for _, q := range point {
			if got := planHits(plan, b, q.at, q.at+1, pre, post); got != q.want {
				t.Errorf("%s: point %v = %v, want %v", name, q.at, got, q.want)
			}
			if planHits(plan, other, q.at, q.at+1, pre, post) {
				t.Errorf("%s: point %v hits untouched back-end %d", name, q.at, other)
			}
		}
		for _, q := range interval {
			if got := planHits(plan, b, q.from, q.to, 0, 0); got != q.want {
				t.Errorf("%s: interval [%v, %v) = %v, want %v", name, q.from, q.to, got, q.want)
			}
		}
	}
	mr := faults.Plan{MRInvalidations: []faults.MRInvalidation{{Node: b, At: S}}}
	if planHits(mr, b, S, S+1, pre, post) {
		t.Error("an MR invalidation counted as a fault window")
	}
}
