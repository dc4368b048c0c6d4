package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

func claimCfg() ClaimConfig {
	// poll=50ms defaults: CheckEvery=100ms, TTL=300ms, ExpireAfter=500ms,
	// VacantGrace=200ms, HandbackAfter=1s.
	return ClaimConfig{Shards: 4}.WithDefaults(DefaultInterval)
}

func TestClaimConfigDefaultsEnforceSafetyMargin(t *testing.T) {
	c := claimCfg()
	if c.ExpireAfter <= c.TTL() {
		t.Fatalf("ExpireAfter %v must exceed TTL %v", c.ExpireAfter, c.TTL())
	}
	// An unsafe explicit config is repaired, not honored.
	bad := ClaimConfig{ExpireAfter: sim.Second, CheckEvery: sim.Second}.WithDefaults(0)
	if bad.ExpireAfter < bad.TTL()+2*bad.CheckEvery {
		t.Fatalf("sanitizer kept unsafe ExpireAfter %v for TTL %v", bad.ExpireAfter, bad.TTL())
	}
	if bad.Shards != 8 {
		t.Fatalf("default shards = %d, want 8", bad.Shards)
	}
}

// readWord is a successful read of claim word w.
func readWord(w uint64) ClaimRead {
	b := make([]byte, wire.ClaimWordSize)
	binary.LittleEndian.PutUint64(b, w)
	return ClaimRead{Data: b}
}

// round runs one claim round of tab at now, reading words — one per
// unheld shard, in shard order — and returns the plan.
func round(t *testing.T, tab *ClaimTable, now sim.Time, words ...uint64) []ClaimCAS {
	t.Helper()
	if n := len(tab.StartRound()); n != len(words) {
		t.Fatalf("round at %v reads %d words, test supplied %d", now, n, len(words))
	}
	reads := make([]ClaimRead, len(words))
	for i, w := range words {
		reads[i] = readWord(w)
	}
	return tab.Plan(now, reads)
}

// bids reports whether a one-shard table's round at now, reading w,
// bids (an unheld table plans nothing else).
func bids(t *testing.T, tab *ClaimTable, now sim.Time, w uint64) bool {
	t.Helper()
	return len(round(t, tab, now, w)) == 1
}

// oneShard is claimCfg folded onto a single word.
func oneShard() ClaimConfig {
	c := claimCfg()
	c.Shards = 1
	return c
}

// TestClaimHomeMapping pins the home partition: shard s is home to
// front-end (s % owners) + 1.
func TestClaimHomeMapping(t *testing.T) {
	cfg := claimCfg()
	cfg.Shards = 8
	for me := uint16(1); me <= 3; me++ {
		for shard, c := range NewClaimTable(me, 3, cfg).Claims {
			want := shard%3 == int(me)-1
			if c.Home != want {
				t.Fatalf("fe %d shard %d: home = %v, want %v", me, shard, c.Home, want)
			}
		}
	}
}

// TestClaimObservePatience drives the observe rules through rounds: a
// home front-end bids on vacancy immediately, a foreigner only after
// VacantGrace; an owned-but-stuck word is an orphan after ExpireAfter
// for the home and ExpireAfter+VacantGrace for a foreigner.
func TestClaimObservePatience(t *testing.T) {
	home := NewClaimTable(1, 2, oneShard()) // shard 0 % 2 == 0 == me-1
	foreign := NewClaimTable(2, 2, oneShard())
	cfg := home.Claims[0].Cfg

	vacant := wire.PackClaimWord(wire.ClaimVacantOwner, 3, 7) // released at epoch 3
	if !bids(t, home, 0, vacant) {
		t.Fatal("home must bid on a vacant word immediately")
	}
	if bids(t, foreign, 0, vacant) {
		t.Fatal("foreigner must not bid on first sight of a vacancy")
	}
	if bids(t, foreign, cfg.VacantGrace()-1, vacant) {
		t.Fatal("foreigner bid before VacantGrace")
	}
	cas := round(t, foreign, cfg.VacantGrace(), vacant)
	if len(cas) != 1 {
		t.Fatal("foreigner must bid after VacantGrace")
	}
	// The bid fences to epoch 4: releases preserve the epoch.
	if wire.WordEpoch(cas[0].Swap) != 4 {
		t.Fatalf("bid epoch = %d, want 4", wire.WordEpoch(cas[0].Swap))
	}

	held := wire.PackClaimWord(2, 5, 9)
	h2 := NewClaimTable(1, 2, oneShard())
	f2 := NewClaimTable(3, 2, oneShard()) // not home for shard 0 either
	if bids(t, h2, 0, held) || bids(t, f2, 0, held) {
		t.Fatal("a live claim must not be bid on at first sight")
	}
	if bids(t, h2, cfg.ExpireAfter-1, held) {
		t.Fatal("home expired a claim early")
	}
	if !bids(t, h2, cfg.ExpireAfter, held) {
		t.Fatal("home must reclaim an orphan after ExpireAfter")
	}
	if bids(t, f2, cfg.ExpireAfter, held) {
		t.Fatal("foreigner must yield the orphan to its home first")
	}
	if !bids(t, f2, cfg.ExpireAfter+cfg.VacantGrace(), held) {
		t.Fatal("foreigner must adopt the orphan after the extra grace")
	}
	// Any change to the word resets patience.
	if bids(t, h2, cfg.ExpireAfter+sim.Second, wire.PackClaimWord(2, 5, 10)) {
		t.Fatal("a fresh heartbeat must reset orphan patience")
	}
}

// TestClaimMachineLifecycle walks adopt -> renew -> handback -> re-adopt
// -> fencing for a foreign front-end, one round and its completions at
// a time.
func TestClaimMachineLifecycle(t *testing.T) {
	tab := NewClaimTable(2, 2, oneShard()) // shard 0 % 2 == 0: home is fe 1
	c := tab.Claims[0]
	cfg := c.Cfg
	if c.Home {
		t.Fatal("fe 2 must be foreign for shard 0 of 2 owners")
	}
	vacant := wire.PackClaimWord(0, 0, 0)
	if bids(t, tab, 0, vacant) {
		t.Fatal("foreigner bid on first sight")
	}
	at := cfg.VacantGrace()
	cas := round(t, tab, at, vacant)
	if want := (ClaimCAS{Shard: 0, Op: ClaimBid, Compare: 0, Swap: wire.PackClaimWord(2, 1, 0)}); len(cas) != 1 || cas[0] != want {
		t.Fatalf("bid = %+v, want %+v", cas, want)
	}
	tab.Complete(cas[0], cas[0].Compare, true, at)
	if !c.Valid(at+cfg.TTL()-1) || c.Valid(at+cfg.TTL()) || c.Epoch() != 1 || c.Takeovers != 1 {
		t.Fatalf("post-win state wrong: %v", c)
	}
	cas = round(t, tab, at+cfg.CheckEvery)
	if want := (ClaimCAS{Shard: 0, Op: ClaimRenew, Compare: wire.PackClaimWord(2, 1, 0), Swap: wire.PackClaimWord(2, 1, 1)}); len(cas) != 1 || cas[0] != want {
		t.Fatalf("renew = %+v, want %+v", cas, want)
	}
	tab.Complete(cas[0], cas[0].Compare, true, at+cfg.CheckEvery)
	if !c.Valid(at+cfg.CheckEvery+cfg.TTL()-1) || c.Renewals != 1 {
		t.Fatalf("post-renew state wrong: %v", c)
	}
	// After HandbackAfter the adopted shard is released: owner zeroed,
	// epoch and stamp kept.
	rel := at + cfg.HandbackAfter()
	cas = round(t, tab, rel)
	if want := (ClaimCAS{Shard: 0, Op: ClaimRelease, Compare: wire.PackClaimWord(2, 1, 1), Swap: wire.PackClaimWord(0, 1, 1)}); len(cas) != 1 || cas[0] != want {
		t.Fatalf("release = %+v, want %+v", cas, want)
	}
	tab.Complete(cas[0], cas[0].Compare, true, rel)
	if c.Held() || c.Valid(rel) || c.Handbacks != 1 {
		t.Fatalf("post-release state wrong: %v", c)
	}
	// Re-adopt the released word after VacantGrace: the epoch advances.
	released := wire.PackClaimWord(0, 1, 1)
	if bids(t, tab, rel+cfg.VacantGrace()-1, released) {
		t.Fatal("foreigner re-bid on its own release before VacantGrace")
	}
	again := rel + cfg.VacantGrace()
	cas = round(t, tab, again, released)
	if len(cas) != 1 || wire.WordEpoch(cas[0].Swap) != 2 {
		t.Fatalf("re-bid = %+v, want epoch 2", cas)
	}
	tab.Complete(cas[0], cas[0].Compare, true, again)
	// A lost renew fences immediately.
	var fenced bool
	c.OnDepose = func(shard, epoch uint16, now sim.Time) { fenced = shard == 0 && epoch == 2 }
	cas = round(t, tab, again+cfg.CheckEvery)
	tab.Complete(cas[0], wire.PackClaimWord(1, 3, 0), false, again+cfg.CheckEvery)
	if c.Held() || c.Valid(again+cfg.CheckEvery) || !fenced || c.Deposals != 1 {
		t.Fatalf("post-deposal state wrong: %v", c)
	}
}

// TestClaimTableRound pins the one claim round both drivers run:
// StartRound, Plan over positional reads, Complete per CAS.
func TestClaimTableRound(t *testing.T) {
	cfg := claimCfg()
	t.Run("reads are positional over unheld shards", func(t *testing.T) {
		tab := NewClaimTable(1, 0, cfg) // 4 shards, all home
		cas := round(t, tab, 0,
			wire.PackClaimWord(2, 1, 0), // shard 0: held elsewhere
			wire.PackClaimWord(0, 0, 0), // shard 1: vacant
			wire.PackClaimWord(3, 5, 0), // shard 2: held elsewhere
			wire.PackClaimWord(0, 7, 2)) // shard 3: released at epoch 7
		want := []ClaimCAS{
			{Shard: 1, Op: ClaimBid, Compare: 0, Swap: wire.PackClaimWord(1, 1, 0)},
			{Shard: 3, Op: ClaimBid, Compare: wire.PackClaimWord(0, 7, 2), Swap: wire.PackClaimWord(1, 8, 0)},
		}
		if len(cas) != 2 || cas[0] != want[0] || cas[1] != want[1] {
			t.Fatalf("plan = %+v, want %+v", cas, want)
		}
		tab.Complete(cas[0], cas[0].Compare, true, 5)
		if c := tab.Claims[1]; !c.Held() || c.Epoch() != 1 || !c.Valid(5+cfg.TTL()-1) || c.Valid(5+cfg.TTL()) {
			t.Fatalf("won shard 1 = %v, want held at epoch 1, valid for TTL from 5", c)
		}
		// Shard 1 is held now: three reads, and the second lands on
		// shard 2.
		if got := tab.StartRound(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("unheld = %v, want [0 2 3]", got)
		}
		cas = round(t, tab, 10,
			wire.PackClaimWord(2, 1, 0),
			wire.PackClaimWord(0, 5, 1), // shard 2 released
			wire.PackClaimWord(0, 7, 2))
		if len(cas) != 3 || cas[0].Shard != 1 || cas[0].Op != ClaimRenew ||
			cas[1].Shard != 2 || cas[1].Compare != wire.PackClaimWord(0, 5, 1) || cas[2].Shard != 3 {
			t.Fatalf("plan = %+v", cas)
		}
	})
	t.Run("a read error skips the shard and counts", func(t *testing.T) {
		two := cfg
		two.Shards = 2
		tab := NewClaimTable(1, 0, two)
		tab.StartRound()
		cas := tab.Plan(0, []ClaimRead{{Err: simnet.ErrTimeout}, readWord(0)})
		if len(cas) != 1 || cas[0].Shard != 1 || tab.ReadErrors != 1 {
			t.Fatalf("plan = %+v, read errors %d", cas, tab.ReadErrors)
		}
		tab.StartRound()
		if cas := tab.Plan(1, []ClaimRead{{Data: []byte{1, 2}}, readWord(0)}); len(cas) != 1 || tab.ReadErrors != 2 {
			t.Fatalf("short read: plan = %+v, read errors %d", cas, tab.ReadErrors)
		}
	})
	t.Run("a CAS error leaves the state unchanged", func(t *testing.T) {
		tab := NewClaimTable(1, 0, oneShard())
		c := tab.Claims[0]
		cas := round(t, tab, 0, 0)
		tab.Complete(cas[0], 0, true, 0)
		before := *c
		renew := round(t, tab, cfg.CheckEvery)[0]
		// The transport lost the CAS: the driver counts it and does not
		// complete it.
		if !reflect.DeepEqual(*c, before) {
			t.Fatalf("planning a renew changed the machine: %v, was %v", c, &before)
		}
		if !c.Valid(cfg.TTL()-1) || c.Valid(cfg.TTL()) || c.Renewals != 0 {
			t.Fatalf("a failed renew moved validity: %v", c)
		}
		if again := round(t, tab, 2*cfg.CheckEvery); len(again) != 1 || again[0] != renew {
			t.Fatalf("replanned %+v, want %+v", again, renew)
		}
	})
	t.Run("a lost bid resets patience from prev", func(t *testing.T) {
		tab := NewClaimTable(1, 0, oneShard())
		stuck := wire.PackClaimWord(2, 1, 3)
		bids(t, tab, 0, stuck)
		cas := round(t, tab, cfg.ExpireAfter, stuck)
		if len(cas) != 1 {
			t.Fatal("no bid on an orphan")
		}
		winner := wire.PackClaimWord(3, 2, 0)
		lost := cfg.ExpireAfter + sim.Millisecond
		tab.Complete(cas[0], winner, false, lost)
		if c := tab.Claims[0]; c.Held() || c.Takeovers != 0 {
			t.Fatalf("a lost bid took the shard: %v", c)
		}
		if bids(t, tab, lost+cfg.ExpireAfter-1, winner) {
			t.Fatal("patience did not restart from the lost bid")
		}
		if cas := round(t, tab, lost+cfg.ExpireAfter, winner); len(cas) != 1 || cas[0].Compare != winner {
			t.Fatalf("bid after patience = %+v, want compare %#x", cas, winner)
		}
	})
	t.Run("a lost renew or release deposes", func(t *testing.T) {
		tab := NewClaimTable(2, 2, oneShard()) // foreign: releases after HandbackAfter
		c := tab.Claims[0]
		var now sim.Time
		adopt := func() {
			t.Helper()
			vacant := wire.PackClaimWord(0, c.Epoch(), 0)
			bids(t, tab, now, vacant)
			now += cfg.VacantGrace()
			cas := round(t, tab, now, vacant)
			tab.Complete(cas[0], cas[0].Compare, true, now)
		}
		adopt()
		now += cfg.CheckEvery
		tab.Complete(round(t, tab, now)[0], wire.PackClaimWord(1, 2, 0), false, now)
		if c.Held() || c.Valid(now) || c.Deposals != 1 {
			t.Fatalf("lost renew: %v", c)
		}
		now += cfg.CheckEvery
		adopt()
		now += cfg.HandbackAfter()
		cas := round(t, tab, now)
		if cas[0].Op != ClaimRelease {
			t.Fatalf("want a handback, planned %+v", cas)
		}
		tab.Complete(cas[0], wire.PackClaimWord(1, 4, 0), false, now)
		if c.Held() || c.Valid(now) || c.Deposals != 2 || c.Handbacks != 0 {
			t.Fatalf("lost release: %v", c)
		}
	})
	t.Run("validity is stamped from the post, never the completion", func(t *testing.T) {
		tab := NewClaimTable(1, 0, oneShard())
		c := tab.Claims[0]
		now := sim.Second
		cas := round(t, tab, now, 0)
		posted := now - 100*sim.Millisecond
		tab.Complete(cas[0], 0, true, posted)
		if c.validUntil != posted+cfg.TTL() || c.heldSince != posted {
			t.Fatalf("win stamped %v, want %v", c.validUntil, posted+cfg.TTL())
		}
		now += cfg.CheckEvery
		cas = round(t, tab, now)
		posted = now - 50*sim.Millisecond
		tab.Complete(cas[0], cas[0].Compare, true, posted)
		if c.validUntil != posted+cfg.TTL() {
			t.Fatalf("renew stamped %v, want %v", c.validUntil, posted+cfg.TTL())
		}
	})
}

// vaultOwner is the owner field of shard s's claim word (0 when
// vacant).
func vaultOwner(v *ClaimVault, s int) uint16 {
	o, _ := vaultWord(v, s)
	return o
}

// vaultWord is the owner and epoch shard s's claim word names.
func vaultWord(v *ClaimVault, s int) (owner, epoch uint16) {
	o, e, _ := wire.UnpackClaimWord(binary.LittleEndian.Uint64(v.words[s]))
	return o, e
}

type claimRig struct {
	eng     *sim.Engine
	fab     *simnet.Fabric
	vault   *ClaimVault
	nodes   []*simos.Node
	nics    []*simnet.NIC
	mgrs    []*ClaimManager
	witness *simos.Node
}

// newClaimRig wires fes front-ends in a ring of owners (0: every
// front-end is home — HA) and a witness over a real fabric.
func newClaimRig(t *testing.T, fes, owners int, cfg ClaimConfig) *claimRig {
	t.Helper()
	cfg = cfg.WithDefaults(DefaultInterval)
	r := &claimRig{eng: sim.NewEngine(11)}
	r.fab = simnet.NewFabric(r.eng, simnet.Defaults())
	wn := simos.NewNode(r.eng, 100, simos.NodeDefaults())
	wnic := r.fab.Attach(wn)
	r.witness = wn
	r.vault = NewClaimVault(wnic, cfg.Shards)
	for i := 0; i < fes; i++ {
		n := simos.NewNode(r.eng, i+1, simos.NodeDefaults())
		nic := r.fab.Attach(n)
		r.nodes = append(r.nodes, n)
		r.nics = append(r.nics, nic)
		r.mgrs = append(r.mgrs, StartClaimManager(n, nic, 100,
			r.vault.WordKeys(), uint16(i+1), owners, cfg))
	}
	return r
}

// TestClaimManagerConvergesToHomePartition runs three front-ends over
// a four-shard table: the steady state assigns every shard to its home
// front-end, each word naming the epoch its holder believes it holds.
func TestClaimManagerConvergesToHomePartition(t *testing.T) {
	cfg := claimCfg()
	r := newClaimRig(t, 3, 3, cfg)
	r.eng.RunFor(2 * sim.Second)
	now := r.eng.Now()
	for s := 0; s < cfg.Shards; s++ {
		wantOwner := uint16(s%3) + 1
		if got := vaultOwner(r.vault, s); got != wantOwner {
			t.Fatalf("shard %d owner = %d, want home %d", s, got, wantOwner)
		}
		if !r.mgrs[wantOwner-1].Valid(s, now) {
			t.Fatalf("home fe %d does not validly hold shard %d", wantOwner, s)
		}
		if _, epoch := vaultWord(r.vault, s); epoch != r.mgrs[wantOwner-1].Claims[s].Epoch() {
			t.Fatalf("shard %d word epoch %d, holder's %d", s, epoch, r.mgrs[wantOwner-1].Claims[s].Epoch())
		}
	}
	// Exactly one valid holder per shard.
	for s := 0; s < cfg.Shards; s++ {
		holders := 0
		for _, m := range r.mgrs {
			if m.Valid(s, now) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("shard %d has %d valid holders", s, holders)
		}
	}
}

// TestClaimManagerOrphanReclaimAndFence freezes a front-end holding
// claims: survivors must adopt its shards within the reclaim bound,
// and the thawed holder must be fenced (deposed on its stale renew),
// never re-validating into a double-claim.
func TestClaimManagerOrphanReclaimAndFence(t *testing.T) {
	cfg := claimCfg()
	r := newClaimRig(t, 3, 3, cfg)
	r.eng.RunFor(2 * sim.Second)

	victim := 0
	frozeAt := r.eng.Now()
	r.nodes[victim].Freeze()
	bound := cfg.ExpireAfter + cfg.VacantGrace() + 4*cfg.CheckEvery
	r.eng.RunFor(bound)
	now := r.eng.Now()
	for s := 0; s < cfg.Shards; s++ {
		owner := vaultOwner(r.vault, s)
		if owner == uint16(victim)+1 {
			t.Fatalf("shard %d still owned by frozen fe after %v", s, bound)
		}
		if owner == 0 {
			t.Fatalf("shard %d left vacant after reclaim bound", s)
		}
		holders := 0
		for i, m := range r.mgrs {
			if i != victim && m.Valid(s, now) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("shard %d has %d valid survivors", s, holders)
		}
	}
	// The frozen holder's validity lapsed before any adoption began.
	for s := 0; s < cfg.Shards; s++ {
		c := r.mgrs[victim].Claims[s]
		if c.Held() && c.validUntil > frozeAt+cfg.TTL() {
			t.Fatalf("frozen holder's shard %d validity extended impossibly", s)
		}
	}

	// Thaw: the victim's stale renews lose and fence it; after
	// HandbackAfter the adopted shards drift home again.
	r.nodes[victim].Thaw()
	r.eng.RunFor(4 * cfg.CheckEvery)
	deposals := uint64(0)
	for _, c := range r.mgrs[victim].Claims {
		deposals += c.Deposals
	}
	if deposals == 0 {
		t.Fatal("thawed ex-holder was never fenced")
	}
	r.eng.RunFor(cfg.HandbackAfter() + 6*cfg.CheckEvery)
	for s := 0; s < cfg.Shards; s++ {
		if wantHome := uint16(s%3) + 1; wantHome == uint16(victim)+1 {
			if got := vaultOwner(r.vault, s); got != wantHome {
				t.Fatalf("shard %d not handed back to restarted home: owner %d", s, got)
			}
		}
	}
}

// TestClaimManagerDoorbellEconomy checks the two-doorbells-per-round
// contract: word reads and CAS posts are both batched, so doorbells
// grow with rounds, not with shard count.
func TestClaimManagerDoorbellEconomy(t *testing.T) {
	cfg := ClaimConfig{Shards: 16}.WithDefaults(DefaultInterval)
	r := newClaimRig(t, 2, 2, cfg)
	r.eng.RunFor(2 * sim.Second)
	m := r.mgrs[0]
	nic := r.nics[0]
	if m.Rounds == 0 {
		t.Fatal("no rounds ran")
	}
	// <= 2 doorbells per round (read batch + CAS batch; rounds with no
	// due CAS ring once).
	if max := 2 * m.Rounds; nic.DoorbellBatches > max {
		t.Fatalf("doorbells %d exceed 2/round over %d rounds", nic.DoorbellBatches, m.Rounds)
	}
}

// TestClaimManagerHolderReadsNothing pins the read economy: a holder's
// renewal and release operands come from its own state, so a
// front-end holding every shard rings exactly one doorbell per round
// (the CAS batch) and reads no words at all.
func TestClaimManagerHolderReadsNothing(t *testing.T) {
	cfg := ClaimConfig{Shards: 16}.WithDefaults(DefaultInterval)
	r := newClaimRig(t, 1, 1, cfg)
	r.eng.RunFor(sim.Second)
	m, nic := r.mgrs[0], r.nics[0]
	if got := m.HeldValid(r.eng.Now()); got != cfg.Shards {
		t.Fatalf("sole front-end holds %d of %d shards", got, cfg.Shards)
	}
	rounds, bells, reads := m.Rounds, nic.DoorbellBatches, nic.RDMAReads
	r.eng.RunFor(2 * sim.Second)
	if m.Rounds == rounds {
		t.Fatal("no rounds ran")
	}
	if got, want := nic.DoorbellBatches-bells, m.Rounds-rounds; got != want {
		t.Fatalf("doorbells %d over %d rounds, want one per round", got, want)
	}
	if nic.RDMAReads != reads {
		t.Fatalf("holder read %d words it already holds", nic.RDMAReads-reads)
	}
}

// haCfg is HA's one-shard table at the poll=50ms defaults:
// CheckEvery=100ms, TTL=300ms, ExpireAfter=500ms.
func haCfg() ClaimConfig {
	return ClaimConfig{Shards: 1}.WithDefaults(DefaultInterval)
}

// TestLeaseConfigDefaultsEnforceSafetyMargin checks the config HA's
// lease is resolved to: one shard, the poll-derived timing its golden
// digests rest on, and the takeover margin repaired when set unsafely.
func TestLeaseConfigDefaultsEnforceSafetyMargin(t *testing.T) {
	c := haCfg()
	if c.ExpireAfter <= c.TTL() {
		t.Fatalf("ExpireAfter %v must exceed TTL %v", c.ExpireAfter, c.TTL())
	}
	// Check every 2 polls, trust 6, take over after 10.
	if p := DefaultInterval; c.CheckEvery != 2*p || c.TTL() != 6*p || c.ExpireAfter != 10*p {
		t.Fatalf("defaults CheckEvery=%v TTL=%v ExpireAfter=%v, want 2/6/10 polls of %v",
			c.CheckEvery, c.TTL(), c.ExpireAfter, p)
	}
	if c.Shards != 1 {
		t.Fatalf("HA table has %d shards, want 1", c.Shards)
	}
	// An unsafe explicit config is repaired, not honored.
	bad := ClaimConfig{Shards: 1, ExpireAfter: sim.Second, CheckEvery: sim.Second}.WithDefaults(0)
	if bad.ExpireAfter < bad.TTL()+2*bad.CheckEvery {
		t.Fatalf("sanitizer kept unsafe ExpireAfter %v for TTL %v", bad.ExpireAfter, bad.TTL())
	}
}

// TestLeaseMachine drives HA's state machine — a one-shard claim table
// with owners = 0, so every front-end is home — through the protocol's
// rounds and outcomes and checks holdership, epoch, validity and
// counters after each step: a vacant word is bid on at once, an orphan
// after ExpireAfter with no VacantGrace, and nothing is ever handed
// back.
func TestLeaseMachine(t *testing.T) {
	cfg := haCfg()
	type step struct {
		name string
		at   sim.Time
		do   func(tab *ClaimTable, at sim.Time) // one round or outcome
		held bool
		// validAt / invalidAt probe Valid() at specific times.
		validAt   sim.Time
		invalidAt sim.Time
		epoch     uint16
	}
	var planned ClaimCAS // the last round's CAS
	observe := func(word uint64, wantBid bool) func(*ClaimTable, sim.Time) {
		return func(tab *ClaimTable, at sim.Time) {
			cas := round(t, tab, at, word)
			if got := len(cas) == 1; got != wantBid {
				t.Fatalf("round reading %#x at %v bids = %v, want %v", word, at, got, wantBid)
			}
			if wantBid {
				planned = cas[0]
			}
		}
	}
	// complete settles the planned bid; renew runs a holder's round and
	// settles its renewal. won false means the witness held prev.
	complete := func(won bool, prev uint64) func(*ClaimTable, sim.Time) {
		return func(tab *ClaimTable, at sim.Time) {
			if won {
				prev = planned.Compare
			}
			tab.Complete(planned, prev, won, at)
		}
	}
	renew := func(won bool, prev uint64) func(*ClaimTable, sim.Time) {
		return func(tab *ClaimTable, at sim.Time) {
			cas := round(t, tab, at)
			if len(cas) != 1 || cas[0].Op != ClaimRenew {
				t.Fatalf("holder planned %+v, want one renewal", cas)
			}
			planned = cas[0]
			complete(won, prev)(tab, at)
		}
	}
	steps := []step{
		{
			name: "vacant word invites an immediate bid",
			at:   0,
			do:   observe(wire.PackClaimWord(wire.ClaimVacantOwner, 0, 0), true),
			held: false, invalidAt: 0,
		},
		{
			name: "claim won: primary of epoch 1, valid for TTL",
			at:   10 * sim.Millisecond,
			do:   complete(true, 0),
			held: true, epoch: 1,
			validAt:   10*sim.Millisecond + cfg.TTL() - 1,
			invalidAt: 10*sim.Millisecond + cfg.TTL(),
		},
		{
			name: "renewal extends validity",
			at:   100 * sim.Millisecond,
			do:   renew(true, 0),
			held: true, epoch: 1,
			validAt:   100*sim.Millisecond + cfg.TTL() - 1,
			invalidAt: 100*sim.Millisecond + cfg.TTL(),
		},
		{
			name: "expiry without renewal: still held, but fenced by Valid",
			at:   100*sim.Millisecond + cfg.TTL(),
			do:   func(*ClaimTable, sim.Time) {},
			held: true, epoch: 1,
			invalidAt: 100*sim.Millisecond + cfg.TTL(),
		},
		{
			name: "late renewal with no interloper revalidates",
			at:   sim.Second,
			do:   renew(true, 0),
			held: true, epoch: 1,
			validAt: sim.Second + cfg.TTL()/2,
		},
		{
			name: "renewal lost: deposed immediately (fencing)",
			at:   sim.Second + 100*sim.Millisecond,
			do:   renew(false, wire.PackClaimWord(2, 2, 0)),
			held: false, epoch: 1,
			invalidAt: sim.Second + 100*sim.Millisecond,
		},
		{
			name: "held word needs ExpireAfter of silence before a bid",
			at:   2 * sim.Second,
			do:   observe(wire.PackClaimWord(2, 2, 5), false),
		},
		{
			name: "still quiet but not long enough",
			at:   2*sim.Second + cfg.ExpireAfter - 1,
			do:   observe(wire.PackClaimWord(2, 2, 5), false),
		},
		{
			name: "a changed word resets patience",
			at:   2*sim.Second + cfg.ExpireAfter,
			do:   observe(wire.PackClaimWord(2, 2, 6), false),
		},
		{
			name: "unchanged for ExpireAfter: bid, no VacantGrace on top",
			at:   2*sim.Second + 2*cfg.ExpireAfter,
			do:   observe(wire.PackClaimWord(2, 2, 6), true),
		},
		{
			name: "claim lost to a racing standby",
			at:   2*sim.Second + 2*cfg.ExpireAfter + sim.Millisecond,
			do:   complete(false, wire.PackClaimWord(3, 3, 0)),
		},
		{
			name: "new holder's word must go quiet again before the next bid",
			at:   2*sim.Second + 2*cfg.ExpireAfter + 2*sim.Millisecond,
			do:   observe(wire.PackClaimWord(3, 3, 0), false),
		},
		{
			name: "second takeover: epoch continues from the observed word",
			at:   4 * sim.Second,
			do: func(tab *ClaimTable, at sim.Time) {
				observe(wire.PackClaimWord(3, 3, 0), true)(tab, at+cfg.ExpireAfter)
				if planned.Compare != wire.PackClaimWord(3, 3, 0) {
					t.Fatalf("takeover compare = %#x", planned.Compare)
				}
				o, e, s := wire.UnpackClaimWord(planned.Swap)
				if o != 1 || e != 4 || s != 0 {
					t.Fatalf("takeover swap = (%d,%d,%d), want (1,4,0)", o, e, s)
				}
				complete(true, 0)(tab, at+cfg.ExpireAfter)
			},
			held: true, epoch: 4,
			validAt: 4*sim.Second + cfg.ExpireAfter + cfg.TTL() - 1,
		},
	}

	tab := NewClaimTable(1, 0, cfg)
	c := tab.Claims[0]
	if !c.Home {
		t.Fatal("owners = 0 must make every front-end home")
	}
	for _, s := range steps {
		s.do(tab, s.at)
		if c.Held() != s.held {
			t.Fatalf("%s: held = %v, want %v", s.name, c.Held(), s.held)
		}
		if s.epoch != 0 && c.Epoch() != s.epoch {
			t.Fatalf("%s: epoch = %d, want %d", s.name, c.Epoch(), s.epoch)
		}
		if s.validAt != 0 && !c.Valid(s.validAt) {
			t.Fatalf("%s: Valid(%v) = false, want true", s.name, s.validAt)
		}
		if s.invalidAt != 0 && c.Valid(s.invalidAt) {
			t.Fatalf("%s: Valid(%v) = true, want false", s.name, s.invalidAt)
		}
	}
	if c.Takeovers != 2 || c.Renewals != 2 || c.Deposals != 1 {
		t.Fatalf("counters takeovers=%d renewals=%d deposals=%d, want 2/2/1",
			c.Takeovers, c.Renewals, c.Deposals)
	}
	if cas := round(t, tab, 100*cfg.HandbackAfter()); cas[0].Op != ClaimRenew {
		t.Fatalf("a home holder must never owe a handback: planned %+v", cas)
	}
}

func TestLeaseRenewBidOperands(t *testing.T) {
	tab := NewClaimTable(2, 0, haCfg())
	cas := round(t, tab, 0, wire.PackClaimWord(wire.ClaimVacantOwner, 0, 0))
	tab.Complete(cas[0], cas[0].Compare, true, 0)
	cas = round(t, tab, 0)
	if cmp, swp := cas[0].Compare, cas[0].Swap; cmp != wire.PackClaimWord(2, 1, 0) || swp != wire.PackClaimWord(2, 1, 1) {
		t.Fatalf("renew bid = (%#x, %#x)", cmp, swp)
	}
	tab.Complete(cas[0], cas[0].Compare, true, sim.Millisecond)
	cas = round(t, tab, sim.Millisecond)
	if cmp, swp := cas[0].Compare, cas[0].Swap; cmp != wire.PackClaimWord(2, 1, 1) || swp != wire.PackClaimWord(2, 1, 2) {
		t.Fatalf("renew bid after renewal = (%#x, %#x)", cmp, swp)
	}
}

// TestHAClaimManagerAcquireRenewHandoff runs two HA front-ends end to
// end over a one-shard table: one acquires, holds through renewals,
// then freezes; the other takes over within ExpireAfter plus a few
// check cycles, and the thawed original is fenced on its first renewal.
func TestHAClaimManagerAcquireRenewHandoff(t *testing.T) {
	cfg := haCfg()
	r := newClaimRig(t, 2, 0, cfg)
	r.eng.RunFor(sim.Second)

	a, b := r.mgrs[0].Claims[0], r.mgrs[1].Claims[0]
	var primary, standby int
	switch {
	case a.Held() && !b.Held():
		primary, standby = 0, 1
	case b.Held() && !a.Held():
		primary, standby = 1, 0
	default:
		t.Fatalf("want exactly one primary: %v / %v", a, b)
	}
	pc, sc := r.mgrs[primary].Claims[0], r.mgrs[standby].Claims[0]
	if pc.Renewals == 0 {
		t.Fatal("primary never renewed")
	}
	if !pc.Valid(r.eng.Now()) {
		t.Fatal("steady-state primary must be valid")
	}
	if owner, epoch := vaultWord(r.vault, 0); owner != pc.Me || epoch != pc.Epoch() {
		t.Fatalf("witness word names owner %d epoch %d, primary is %v", owner, epoch, pc)
	}

	// Freeze the primary's host: renewals stop, validity lapses, the
	// standby seizes a new epoch within ExpireAfter + a few checks.
	frozeAt := r.eng.Now()
	r.nodes[primary].Freeze()
	r.eng.RunFor(cfg.ExpireAfter + 4*cfg.CheckEvery)
	if !sc.Held() {
		t.Fatalf("standby did not take over: %v", sc)
	}
	if got := sc.Epoch(); got != 2 {
		t.Fatalf("takeover epoch = %d, want 2", got)
	}
	// The frozen primary's validity lapsed before the new epoch began.
	if pc.validUntil > frozeAt+cfg.TTL() {
		t.Fatal("frozen primary's validity extended impossibly")
	}

	// Thaw the old primary: its next renewal CAS fails (epoch moved)
	// and it must step down — the fencing path.
	r.nodes[primary].Thaw()
	r.eng.RunFor(4 * cfg.CheckEvery)
	if pc.Held() {
		t.Fatalf("thawed ex-primary not deposed: %v", pc)
	}
	if pc.Deposals != 1 {
		t.Fatalf("deposals = %d, want 1", pc.Deposals)
	}
	if pc.Valid(r.eng.Now()) {
		t.Fatal("deposed front-end must not be valid")
	}
}

// TestHAClaimManagerWitnessPartition cuts the primary off from the
// witness: its validity lapses (so it stops dispatching) but it keeps
// renewing; with the standby also partitioned no epoch changes, and on
// heal the primary revalidates under the same epoch.
func TestHAClaimManagerWitnessPartition(t *testing.T) {
	cfg := haCfg()
	r := newClaimRig(t, 2, 0, cfg)
	r.eng.RunFor(sim.Second)
	var pm *ClaimManager
	for _, m := range r.mgrs {
		if m.Claims[0].Held() {
			pm = m
		}
	}
	if pm == nil {
		t.Fatal("no primary")
	}
	epoch := pm.Claims[0].Epoch()

	// Partition everyone from the witness.
	r.fab.SetFaults(partitionAll{})
	r.eng.RunFor(2 * cfg.ExpireAfter)
	if pm.Valid(0, r.eng.Now()) {
		t.Fatal("partitioned primary must not remain valid")
	}
	if pm.CASErrors == 0 {
		t.Fatal("renewal attempts should be failing")
	}

	r.fab.SetFaults(nil)
	r.eng.RunFor(4 * cfg.CheckEvery)
	if !pm.Valid(0, r.eng.Now()) {
		t.Fatal("healed primary should revalidate")
	}
	if got := pm.Claims[0].Epoch(); got != epoch {
		t.Fatalf("epoch moved across a full partition: %d -> %d", epoch, got)
	}
}

// partitionAll fails every RDMA operation (and delivers channel sends
// normally, which the claim path does not use).
type partitionAll struct{}

func (partitionAll) Channel(from, to, size int) simnet.ChannelVerdict {
	return simnet.ChannelVerdict{}
}
func (partitionAll) RDMA(from, to int) simnet.RDMAVerdict {
	return simnet.RDMAVerdict{Fail: true}
}
