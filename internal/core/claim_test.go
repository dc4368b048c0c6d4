package core

import (
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
	if c.ExpireAfter <= c.TTL {
		t.Fatalf("ExpireAfter %v must exceed TTL %v", c.ExpireAfter, c.TTL)
	}
	// An unsafe explicit config is repaired, not honored.
	bad := ClaimConfig{TTL: 10 * sim.Second, ExpireAfter: sim.Second, CheckEvery: sim.Second}.WithDefaults(0)
	if bad.ExpireAfter < bad.TTL+2*bad.CheckEvery {
		t.Fatalf("sanitizer kept unsafe ExpireAfter %v for TTL %v", bad.ExpireAfter, bad.TTL)
	}
	if bad.Shards != 8 {
		t.Fatalf("default shards = %d, want 8", bad.Shards)
	}
}

// TestClaimHomeMapping pins the home partition: shard s is home to
// front-end (s % owners) + 1.
func TestClaimHomeMapping(t *testing.T) {
	cfg := claimCfg()
	for shard := uint16(0); shard < 8; shard++ {
		for me := uint16(1); me <= 3; me++ {
			c := NewClaim(me, shard, 3, cfg)
			want := int(shard)%3 == int(me)-1
			if c.Home != want {
				t.Fatalf("fe %d shard %d: home = %v, want %v", me, shard, c.Home, want)
			}
		}
	}
}

// TestClaimObservePatience drives the observe rules directly: a home
// front-end bids on vacancy immediately, a foreigner only after
// VacantGrace; an owned-but-stuck word is an orphan after ExpireAfter
// for the home and ExpireAfter+VacantGrace for a foreigner.
func TestClaimObservePatience(t *testing.T) {
	cfg := claimCfg()
	home := NewClaim(1, 0, 2, cfg) // shard 0 % 2 == 0 == me-1
	foreign := NewClaim(2, 0, 2, cfg)

	vacant := wire.PackClaimWord(wire.ClaimVacantOwner, 3, 7) // released at epoch 3
	if !home.Observe(vacant, 0) {
		t.Fatal("home must bid on a vacant word immediately")
	}
	if foreign.Observe(vacant, 0) {
		t.Fatal("foreigner must not bid on first sight of a vacancy")
	}
	if foreign.Observe(vacant, cfg.VacantGrace-1) {
		t.Fatal("foreigner bid before VacantGrace")
	}
	if !foreign.Observe(vacant, cfg.VacantGrace) {
		t.Fatal("foreigner must bid after VacantGrace")
	}
	// The bid fences to epoch 4: releases preserve the epoch.
	if _, swp := foreign.ClaimBid(); wire.WordEpoch(swp) != 4 {
		t.Fatalf("bid epoch = %d, want 4", wire.WordEpoch(swp))
	}

	held := wire.PackClaimWord(2, 5, 9)
	h2 := NewClaim(1, 0, 2, cfg)
	f2 := NewClaim(3, 0, 2, cfg) // not home for shard 0 either
	if h2.Observe(held, 0) || f2.Observe(held, 0) {
		t.Fatal("a live claim must not be bid on at first sight")
	}
	if h2.Observe(held, cfg.ExpireAfter-1) {
		t.Fatal("home expired a claim early")
	}
	if !h2.Observe(held, cfg.ExpireAfter) {
		t.Fatal("home must reclaim an orphan after ExpireAfter")
	}
	if f2.Observe(held, cfg.ExpireAfter) {
		t.Fatal("foreigner must yield the orphan to its home first")
	}
	if !f2.Observe(held, cfg.ExpireAfter+cfg.VacantGrace) {
		t.Fatal("foreigner must adopt the orphan after the extra grace")
	}
	// Any change to the word resets patience.
	if h2.Observe(wire.PackClaimWord(2, 5, 10), cfg.ExpireAfter+sim.Second) {
		t.Fatal("a fresh heartbeat must reset orphan patience")
	}
}

// TestClaimMachineLifecycle walks win -> renew -> handback -> fencing
// through the outcome methods.
func TestClaimMachineLifecycle(t *testing.T) {
	cfg := claimCfg()
	c := NewClaim(2, 1, 2, cfg) // shard 1 % 2 == 1 == me-1: home
	if !c.Home {
		t.Fatal("fe 2 must be home for shard 1 of 2 owners")
	}
	if !c.Observe(wire.PackClaimWord(0, 0, 0), 0) {
		t.Fatal("want immediate bid")
	}
	cmp, swp := c.ClaimBid()
	if cmp != 0 || swp != wire.PackClaimWord(2, 1, 0) {
		t.Fatalf("bid operands %#x -> %#x", cmp, swp)
	}
	c.ClaimWon(10)
	if !c.Valid(10+cfg.TTL-1) || c.Valid(10+cfg.TTL) || c.Epoch() != 1 {
		t.Fatalf("post-win state wrong: %v", c)
	}
	c.RenewWon(200)
	if !c.Valid(200+cfg.TTL-1) || c.Renewals != 1 {
		t.Fatalf("post-renew state wrong: %v", c)
	}
	// Releases zero the owner but keep epoch and stamp.
	rcmp, rswp := c.ReleaseBid()
	if rcmp != wire.PackClaimWord(2, 1, 1) || rswp != wire.PackClaimWord(0, 1, 1) {
		t.Fatalf("release operands %#x -> %#x", rcmp, rswp)
	}
	c.ReleaseWon(300)
	if c.Held() || c.Valid(300) || c.Handbacks != 1 {
		t.Fatalf("post-release state wrong: %v", c)
	}
	// Re-win from the released word: epoch must advance.
	if !c.Observe(rswp, 400) {
		t.Fatal("home must re-bid on its released shard")
	}
	_, swp2 := c.ClaimBid()
	if wire.WordEpoch(swp2) != 2 {
		t.Fatalf("re-bid epoch = %d, want 2", wire.WordEpoch(swp2))
	}
	c.ClaimWon(400)
	// A lost renew fences immediately.
	var fenced bool
	c.OnDepose = func(shard, epoch uint16, now sim.Time) { fenced = shard == 1 && epoch == 2 }
	c.RenewLost(wire.PackClaimWord(1, 3, 0), 500)
	if c.Held() || c.Valid(500) || !fenced || c.Deposals != 1 {
		t.Fatalf("post-deposal state wrong: %v", c)
	}
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
			r.vault.WordKeys(), r.vault.RecKeys(), uint16(i+1), owners, cfg))
	}
	return r
}

// TestClaimManagerConvergesToHomePartition runs three front-ends over
// a four-shard table: the steady state assigns every shard to its home
// front-end, with published records matching the words.
func TestClaimManagerConvergesToHomePartition(t *testing.T) {
	cfg := claimCfg()
	r := newClaimRig(t, 3, 3, cfg)
	r.eng.RunFor(2 * sim.Second)
	now := r.eng.Now()
	for s := 0; s < cfg.Shards; s++ {
		wantOwner := uint16(s%3) + 1
		if got := r.vault.Owner(s); got != wantOwner {
			t.Fatalf("shard %d owner = %d, want home %d", s, got, wantOwner)
		}
		if !r.mgrs[wantOwner-1].Valid(s, now) {
			t.Fatalf("home fe %d does not validly hold shard %d", wantOwner, s)
		}
		rec, err := r.vault.Record(s)
		if err != nil {
			t.Fatalf("shard %d record: %v", s, err)
		}
		if rec.Owner != wantOwner || rec.Shard != uint16(s) {
			t.Fatalf("shard %d record %v does not match word owner %d", s, rec, wantOwner)
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
	bound := cfg.ExpireAfter + cfg.VacantGrace + 4*cfg.CheckEvery
	r.eng.RunFor(bound)
	now := r.eng.Now()
	for s := 0; s < cfg.Shards; s++ {
		owner := r.vault.Owner(s)
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
		if c.Held() && c.ValidUntil() > frozeAt+cfg.TTL {
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
	r.eng.RunFor(cfg.HandbackAfter + 6*cfg.CheckEvery)
	for s := 0; s < cfg.Shards; s++ {
		if wantHome := uint16(s%3) + 1; wantHome == uint16(victim)+1 {
			if got := r.vault.Owner(s); got != wantHome {
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
	if c.ExpireAfter <= c.TTL {
		t.Fatalf("ExpireAfter %v must exceed TTL %v", c.ExpireAfter, c.TTL)
	}
	// Check every 2 polls, trust 6, take over after 10.
	if p := DefaultInterval; c.CheckEvery != 2*p || c.TTL != 6*p || c.ExpireAfter != 10*p {
		t.Fatalf("defaults CheckEvery=%v TTL=%v ExpireAfter=%v, want 2/6/10 polls of %v",
			c.CheckEvery, c.TTL, c.ExpireAfter, p)
	}
	if c.Shards != 1 {
		t.Fatalf("HA table has %d shards, want 1", c.Shards)
	}
	// An unsafe explicit config is repaired, not honored.
	bad := ClaimConfig{Shards: 1, TTL: 10 * sim.Second, ExpireAfter: sim.Second, CheckEvery: sim.Second}.WithDefaults(0)
	if bad.ExpireAfter < bad.TTL+2*bad.CheckEvery {
		t.Fatalf("sanitizer kept unsafe ExpireAfter %v for TTL %v", bad.ExpireAfter, bad.TTL)
	}
}

// TestLeaseMachine drives HA's state machine — a one-shard claim with
// owners = 0, so every front-end is home — through the protocol's step
// outcomes and checks holdership, epoch, validity and counters after
// each step: a vacant word is bid on at once, an orphan after
// ExpireAfter with no VacantGrace, and nothing is ever handed back.
func TestLeaseMachine(t *testing.T) {
	cfg := haCfg()
	type step struct {
		name string
		at   sim.Time
		do   func(c *Claim, at sim.Time) // one protocol outcome
		held bool
		// validAt / invalidAt probe Valid() at specific times.
		validAt   sim.Time
		invalidAt sim.Time
		epoch     uint16
	}
	observe := func(word uint64, wantBid bool) func(*Claim, sim.Time) {
		return func(c *Claim, at sim.Time) {
			if got := c.Observe(word, at); got != wantBid {
				t.Fatalf("Observe(%#x, %v) = %v, want %v", word, at, got, wantBid)
			}
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
			do:   func(c *Claim, at sim.Time) { c.ClaimWon(at) },
			held: true, epoch: 1,
			validAt:   10*sim.Millisecond + cfg.TTL - 1,
			invalidAt: 10*sim.Millisecond + cfg.TTL,
		},
		{
			name: "renewal extends validity",
			at:   100 * sim.Millisecond,
			do:   func(c *Claim, at sim.Time) { c.RenewWon(at) },
			held: true, epoch: 1,
			validAt:   100*sim.Millisecond + cfg.TTL - 1,
			invalidAt: 100*sim.Millisecond + cfg.TTL,
		},
		{
			name: "expiry without renewal: still held, but fenced by Valid",
			at:   100*sim.Millisecond + cfg.TTL,
			do:   func(c *Claim, at sim.Time) {},
			held: true, epoch: 1,
			invalidAt: 100*sim.Millisecond + cfg.TTL,
		},
		{
			name: "late renewal with no interloper revalidates",
			at:   sim.Second,
			do:   func(c *Claim, at sim.Time) { c.RenewWon(at) },
			held: true, epoch: 1,
			validAt: sim.Second + cfg.TTL/2,
		},
		{
			name: "renewal lost: deposed immediately (fencing)",
			at:   sim.Second + 100*sim.Millisecond,
			do: func(c *Claim, at sim.Time) {
				c.RenewLost(wire.PackClaimWord(2, 2, 0), at)
			},
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
			do: func(c *Claim, at sim.Time) {
				c.ClaimLost(wire.PackClaimWord(3, 3, 0), at)
			},
		},
		{
			name: "new holder's word must go quiet again before the next bid",
			at:   2*sim.Second + 2*cfg.ExpireAfter + 2*sim.Millisecond,
			do:   observe(wire.PackClaimWord(3, 3, 0), false),
		},
		{
			name: "second takeover: epoch continues from the observed word",
			at:   4 * sim.Second,
			do: func(c *Claim, at sim.Time) {
				if !c.Observe(wire.PackClaimWord(3, 3, 0), at+cfg.ExpireAfter) {
					t.Fatal("expected bid after silence")
				}
				cmp, swp := c.ClaimBid()
				if cmp != wire.PackClaimWord(3, 3, 0) {
					t.Fatalf("takeover compare = %#x", cmp)
				}
				o, e, s := wire.UnpackClaimWord(swp)
				if o != c.Me || e != 4 || s != 0 {
					t.Fatalf("takeover swap = (%d,%d,%d), want (%d,4,0)", o, e, s, c.Me)
				}
				c.ClaimWon(at + cfg.ExpireAfter)
			},
			held: true, epoch: 4,
			validAt: 4*sim.Second + cfg.ExpireAfter + cfg.TTL - 1,
		},
	}

	c := NewClaim(1, 0, 0, cfg)
	if !c.Home {
		t.Fatal("owners = 0 must make every front-end home")
	}
	for _, s := range steps {
		s.do(c, s.at)
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
	if c.HandbackDue(100 * cfg.HandbackAfter) {
		t.Fatal("a home holder must never owe a handback")
	}
}

func TestLeaseRenewBidOperands(t *testing.T) {
	c := NewClaim(2, 0, 0, haCfg())
	c.Observe(wire.PackClaimWord(wire.ClaimVacantOwner, 0, 0), 0)
	c.ClaimWon(0)
	cmp, swp := c.RenewBid()
	if cmp != wire.PackClaimWord(2, 1, 0) || swp != wire.PackClaimWord(2, 1, 1) {
		t.Fatalf("renew bid = (%#x, %#x)", cmp, swp)
	}
	c.RenewWon(sim.Millisecond)
	cmp, swp = c.RenewBid()
	if cmp != wire.PackClaimWord(2, 1, 1) || swp != wire.PackClaimWord(2, 1, 2) {
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
	rec, err := r.vault.Record(0)
	if err != nil {
		t.Fatalf("claim record: %v", err)
	}
	if rec.Shard != 0 || rec.Owner != pc.Me || rec.Epoch != pc.Epoch() {
		t.Fatalf("published record %v does not match primary %v", rec, pc)
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
	if pc.ValidUntil() > frozeAt+cfg.TTL {
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
