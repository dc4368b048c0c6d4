package core

import (
	"encoding/binary"
	"fmt"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// One-sided dispatch arbitration for replicated front-ends.
//
// The back-end space is folded onto a small table of shards (backend %
// Shards), each with its own 64-bit claim word — owner|epoch|stamp,
// wire.PackClaimWord — hosted in a registered region on a witness, and
// a front-end may dispatch to a back-end only while it validly holds
// that back-end's shard claim. HA (one primary, warm standbys) is the
// one-shard table in which every front-end is home; active-active is
// Shards > 1 with a home partition. All arbitration is one-sided CAS
// on the word; the witness CPU never participates:
//
//   - renew:   CAS(my word -> my word, stamp+1) extends my validity by
//     TTL from the instant the CAS was POSTED; a failed renew means the
//     epoch moved under me and I am fenced off the shard.
//   - claim:   CAS(observed word -> me, epoch+1, 0). The CAS is the
//     election: exactly one bidder's compare matches. A shard's home
//     front-end (shard % owners; everyone when owners is 0) bids the
//     moment it sees the word vacant; foreigners wait VacantGrace
//     first, so the steady state converges to the home partition
//     without racing every vacancy N-ways.
//   - reclaim: a word unchanged for ExpireAfter is an orphan — its
//     holder crashed or froze holding the claim — and it is seized at
//     epoch+1 (by a foreigner only after a further VacantGrace).
//   - release: CAS(my word -> vacant, same epoch and stamp). Owner
//     zero means unclaimed; the epoch is preserved so the next winner
//     still takes a strictly larger epoch. A foreigner that adopted an
//     orphan hands it back this way after HandbackAfter, letting a
//     restarted home reclaim its partition.
//
// No clocks are compared across nodes. A holder trusts its claim for
// TTL after the instant it posted each successful CAS; a bidder waits
// ExpireAfter after the last locally observed change. The post always
// precedes the apply at the witness and the observation follows it, so
// ExpireAfter >= TTL + 2*CheckEvery (the margin covers an observation
// lagging the post by a check period plus a CAS flight) guarantees the
// old holder's validity lapsed before a new epoch begins: a frozen
// holder that thaws cannot double-dispatch, its next renew loses and
// fences it. Stamping from the post, not from the completion, matters:
// a host frozen between posting a renewal and seeing it complete thaws
// to a stale success, and counting TTL from the thaw would revive a
// claim the others already timed out.
//
// Releases keep handoff graceful; crashes make it merely bounded
// (ExpireAfter + a bid round). Either way at most one front-end validly
// holds a shard at any instant — the word's CAS history is linear.

// ClaimConfig tunes the claim protocol. Durations are virtual time;
// the zero value takes defaults derived from the poll interval.
type ClaimConfig struct {
	// Shards is the number of claim words (back-ends fold onto them by
	// backend % Shards). Default 8.
	Shards int
	// TTL is how long a holder trusts a shard claim after each
	// confirmed renewal (default 6 poll intervals).
	TTL sim.Time
	// ExpireAfter is how long a word must sit unchanged before another
	// front-end treats the claim as orphaned and bids. Safety requires
	// it to exceed TTL by more than a CAS completion; the sanitizer
	// enforces ExpireAfter >= TTL + 2*CheckEvery (default 10 polls).
	ExpireAfter sim.Time
	// CheckEvery is the renew/observe cadence (default 2 polls).
	CheckEvery sim.Time
	// VacantGrace is how long a foreigner leaves a vacant word to its
	// home front-end before adopting it (default 2*CheckEvery).
	VacantGrace sim.Time
	// HandbackAfter is how long a foreigner keeps an adopted shard
	// before releasing it back toward its home (default 2*ExpireAfter).
	HandbackAfter sim.Time
}

// WithDefaults fills unset fields from the monitoring poll interval
// and enforces the ExpireAfter > TTL safety margin.
func (c ClaimConfig) WithDefaults(poll sim.Time) ClaimConfig {
	if poll <= 0 {
		poll = DefaultInterval
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 2 * poll
	}
	if c.TTL <= 0 {
		c.TTL = 6 * poll
	}
	if c.ExpireAfter <= 0 {
		c.ExpireAfter = c.TTL + 4*poll
	}
	if min := c.TTL + 2*c.CheckEvery; c.ExpireAfter < min {
		c.ExpireAfter = min
	}
	if c.VacantGrace <= 0 {
		c.VacantGrace = 2 * c.CheckEvery
	}
	if c.HandbackAfter <= 0 {
		c.HandbackAfter = 2 * c.ExpireAfter
	}
	return c
}

// Claim is the per-shard claim state machine for one front-end. Like
// Failover it is clock-free and outcome-driven: the manager performs
// the verbs and feeds back what happened, passing now explicitly.
type Claim struct {
	Cfg   ClaimConfig
	Me    uint16 // 1-based front-end ID (0 is "vacant")
	Shard uint16
	Home  bool // this front-end is the shard's home owner

	held       bool
	epoch      uint16
	stamp      uint32
	validUntil sim.Time
	heldSince  sim.Time

	lastWord     uint64
	lastChangeAt sim.Time
	seen         bool

	// Takeovers counts epochs won (home claims and orphan adoptions
	// alike); Renewals counts confirmed heartbeats; Deposals counts
	// fencing events (a renew or release that lost to a newer epoch);
	// Handbacks counts voluntary releases of adopted foreign shards.
	Takeovers uint64
	Renewals  uint64
	Deposals  uint64
	Handbacks uint64

	// OnAcquire/OnRenew/OnDepose/OnRelease observe holdership
	// transitions; the active-active invariant checker builds per-shard
	// validity intervals from them.
	OnAcquire func(shard, epoch uint16, now, validUntil sim.Time)
	OnRenew   func(shard, epoch uint16, now, validUntil sim.Time)
	OnDepose  func(shard, epoch uint16, now sim.Time)
	OnRelease func(shard, epoch uint16, now sim.Time)
}

// NewClaim builds the machine for shard on front-end me (1-based) in a
// ring of owners front-ends. The home mapping is shard % owners; owners
// == 0 means no home preference — every front-end bids as home, which
// on a one-shard table is HA: a vacant word is bid on at once, an
// orphan after ExpireAfter, and nothing is ever handed back.
func NewClaim(me, shard uint16, owners int, cfg ClaimConfig) *Claim {
	home := owners <= 0 || int(shard)%owners == int(me)-1
	return &Claim{Cfg: cfg.WithDefaults(0), Me: me, Shard: shard, Home: home}
}

// Held reports raw holdership (ignoring validity — use Valid to gate
// dispatch).
func (c *Claim) Held() bool { return c.held }

// Epoch returns the epoch this front-end last held the shard at.
func (c *Claim) Epoch() uint16 { return c.epoch }

// Valid reports whether this front-end may dispatch to the shard at
// now: it holds the claim and is within TTL of its last confirmed CAS.
// This is the fence consulted on every routing decision.
func (c *Claim) Valid(now sim.Time) bool {
	return c.held && now < c.validUntil
}

// ValidUntil returns the end of the current validity window.
func (c *Claim) ValidUntil() sim.Time { return c.validUntil }

// Observe feeds a non-holder's read of the shard word and reports
// whether a claim bid is due: a vacant word immediately for the home
// front-end and after VacantGrace for a foreigner; an owned word once
// it has sat unchanged for ExpireAfter (plus VacantGrace for a
// foreigner, so a live home beats foreigners to its own orphans).
func (c *Claim) Observe(word uint64, now sim.Time) bool {
	if word != c.lastWord || !c.seen {
		c.lastWord = word
		c.lastChangeAt = now
		c.seen = true
		return wire.ClaimVacant(word) && c.Home
	}
	if wire.ClaimVacant(word) {
		if c.Home {
			return true
		}
		return now-c.lastChangeAt >= c.Cfg.VacantGrace
	}
	wait := c.Cfg.ExpireAfter
	if !c.Home {
		wait += c.Cfg.VacantGrace
	}
	return now-c.lastChangeAt >= wait
}

// ClaimBid returns the CAS operands for a claim attempt over the last
// observed word: install me at the next epoch with a fresh stamp.
func (c *Claim) ClaimBid() (compare, swap uint64) {
	return c.lastWord, wire.PackClaimWord(c.Me, wire.WordEpoch(c.lastWord)+1, 0)
}

// ClaimWon records a successful claim CAS posted at now.
func (c *Claim) ClaimWon(now sim.Time) {
	c.held = true
	c.epoch = wire.WordEpoch(c.lastWord) + 1
	c.stamp = 0
	c.validUntil = now + c.Cfg.TTL
	c.heldSince = now
	c.lastWord = wire.PackClaimWord(c.Me, c.epoch, 0)
	c.lastChangeAt = now
	c.Takeovers++
	if c.OnAcquire != nil {
		c.OnAcquire(c.Shard, c.epoch, now, c.validUntil)
	}
}

// ClaimLost records a failed claim CAS; prev is the observed word and
// patience resets from it.
func (c *Claim) ClaimLost(prev uint64, now sim.Time) {
	c.lastWord = prev
	c.lastChangeAt = now
	c.seen = true
}

// RenewBid returns the CAS operands for a holder's heartbeat renewal.
func (c *Claim) RenewBid() (compare, swap uint64) {
	return wire.PackClaimWord(c.Me, c.epoch, c.stamp),
		wire.PackClaimWord(c.Me, c.epoch, c.stamp+1)
}

// RenewWon records a successful renewal posted at now, extending
// validity by TTL.
func (c *Claim) RenewWon(now sim.Time) {
	c.stamp++
	c.validUntil = now + c.Cfg.TTL
	c.lastWord = wire.PackClaimWord(c.Me, c.epoch, c.stamp)
	c.lastChangeAt = now
	c.Renewals++
	if c.OnRenew != nil {
		c.OnRenew(c.Shard, c.epoch, now, c.validUntil)
	}
}

// RenewLost records a failed renewal: the word moved to a newer epoch
// and this front-end is fenced off the shard.
func (c *Claim) RenewLost(prev uint64, now sim.Time) {
	c.depose(prev, now)
}

// HandbackDue reports whether a held foreign shard has been adopted
// long enough that it should be released toward its home.
func (c *Claim) HandbackDue(now sim.Time) bool {
	return c.held && !c.Home && now-c.heldSince >= c.Cfg.HandbackAfter
}

// ReleaseBid returns the CAS operands for a voluntary release: zero
// the owner, keep epoch and stamp so the next winner's epoch is still
// strictly larger.
func (c *Claim) ReleaseBid() (compare, swap uint64) {
	return wire.PackClaimWord(c.Me, c.epoch, c.stamp),
		wire.PackClaimWord(wire.ClaimVacantOwner, c.epoch, c.stamp)
}

// ReleaseWon records a successful release posted at now; the shard is
// immediately unclaimed and this front-end stops dispatching to it.
func (c *Claim) ReleaseWon(now sim.Time) {
	released := c.epoch
	c.held = false
	if c.validUntil > now {
		c.validUntil = now
	}
	c.lastWord = wire.PackClaimWord(wire.ClaimVacantOwner, c.epoch, c.stamp)
	c.lastChangeAt = now
	c.Handbacks++
	if c.OnRelease != nil {
		c.OnRelease(c.Shard, released, now)
	}
}

// ReleaseLost records a failed release CAS: someone already moved the
// word to a newer epoch, which is the same fencing outcome as a lost
// renewal.
func (c *Claim) ReleaseLost(prev uint64, now sim.Time) {
	c.depose(prev, now)
}

func (c *Claim) depose(prev uint64, now sim.Time) {
	deposed := c.epoch
	c.held = false
	if c.validUntil > now {
		c.validUntil = now
	}
	c.lastWord = prev
	c.lastChangeAt = now
	c.seen = true
	c.Deposals++
	if c.OnDepose != nil {
		c.OnDepose(c.Shard, deposed, now)
	}
}

func (c *Claim) String() string {
	role := "foreign"
	if c.Home {
		role = "home"
	}
	return fmt.Sprintf("claim[fe=%d shard=%d %s] held=%v epoch=%d stamp=%d until=%v",
		c.Me, c.Shard, role, c.held, c.epoch, c.stamp, c.validUntil)
}

// ClaimVault hosts the per-shard claim words and descriptive records
// in writable registered regions on the witness node. Each word gets
// its own region because the fabric's atomic unit is the first eight
// bytes of a region; after registration the witness CPU plays no part
// in arbitration.
type ClaimVault struct {
	words   [][]byte
	recs    [][]byte
	WordMRs []*simnet.MR
	RecMRs  []*simnet.MR
}

// NewClaimVault registers shards claim words and records on the
// witness NIC.
func NewClaimVault(nic *simnet.NIC, shards int) *ClaimVault {
	v := &ClaimVault{
		words:   make([][]byte, shards),
		recs:    make([][]byte, shards),
		WordMRs: make([]*simnet.MR, shards),
		RecMRs:  make([]*simnet.MR, shards),
	}
	for s := 0; s < shards; s++ {
		word := make([]byte, wire.ClaimWordSize)
		rec := make([]byte, wire.ClaimRecordSize)
		v.words[s] = word
		v.recs[s] = rec
		v.WordMRs[s] = nic.RegisterWritableMR(simnet.StaticSource(word), len(word),
			func(b []byte) { copy(word, b) })
		v.RecMRs[s] = nic.RegisterWritableMR(simnet.StaticSource(rec), len(rec),
			func(b []byte) { copy(rec, b) })
	}
	return v
}

// Shards returns the table size.
func (v *ClaimVault) Shards() int { return len(v.words) }

// Word returns shard s's current claim word (test and exporter
// introspection; front-ends read it over RDMA).
func (v *ClaimVault) Word(s int) uint64 { return binary.LittleEndian.Uint64(v.words[s]) }

// Owner returns the owner field of shard s's word (0 when vacant).
func (v *ClaimVault) Owner(s int) uint16 {
	o, _, _ := wire.UnpackClaimWord(v.Word(s))
	return o
}

// Record decodes shard s's descriptive claim record, if one has been
// written.
func (v *ClaimVault) Record(s int) (wire.ClaimRecord, error) { return wire.DecodeClaim(v.recs[s]) }

// WordKeys returns the registered keys of the claim words, indexed by
// shard.
func (v *ClaimVault) WordKeys() []uint32 {
	keys := make([]uint32, len(v.WordMRs))
	for i, mr := range v.WordMRs {
		keys[i] = mr.Key()
	}
	return keys
}

// RecKeys returns the registered keys of the claim records, indexed by
// shard.
func (v *ClaimVault) RecKeys() []uint32 {
	keys := make([]uint32, len(v.RecMRs))
	for i, mr := range v.RecMRs {
		keys[i] = mr.Key()
	}
	return keys
}

// claimOp tags what a posted CAS in a claim round was trying to do.
type claimOp uint8

const (
	opClaimRenew claimOp = iota
	opClaimBid
	opClaimRelease
)

// ClaimManager drives one front-end's claim machines over the fabric:
// a task that, every CheckEvery, reads every shard word it does not
// hold in one doorbell, then posts every due renewal, claim bid and
// handback release as a single CAS batch — at most two doorbells per
// round regardless of shard count, one when it holds every shard.
type ClaimManager struct {
	Claims []*Claim // indexed by shard

	node     *simos.Node
	nic      *simnet.NIC
	witness  int
	wordKeys []uint32
	recKeys  []uint32

	// CASErrors / ReadErrors count transport failures (timeouts during
	// partitions or witness downtime); the protocol retries next cycle
	// and lets validity lapse.
	CASErrors  uint64
	ReadErrors uint64
	// Rounds counts completed observe/bid cycles.
	Rounds uint64

	// reusable per-round scratch
	readReqs []simnet.ReadReq // one per shard
	unheld   []simnet.ReadReq // this round's reads: shards not held
	readBufs []byte
	casReqs  []simnet.CASReq
	casShard []uint16
	casOps   []claimOp

	task    *simos.Task
	stopped bool
}

// StartClaimManager spawns the claim task for front-end me (1-based)
// on node. The shard words and records live on the witness under
// wordKeys/recKeys (indexed by shard); owners is the front-end ring
// size for the home mapping (0: every front-end is home, see NewClaim).
func StartClaimManager(node *simos.Node, nic *simnet.NIC, witness int, wordKeys, recKeys []uint32, me uint16, owners int, cfg ClaimConfig) *ClaimManager {
	cfg = cfg.WithDefaults(0)
	if len(wordKeys) < cfg.Shards {
		cfg.Shards = len(wordKeys)
	}
	m := &ClaimManager{
		node:     node,
		nic:      nic,
		witness:  witness,
		wordKeys: wordKeys,
		recKeys:  recKeys,
		Claims:   make([]*Claim, cfg.Shards),
		readReqs: make([]simnet.ReadReq, cfg.Shards),
		readBufs: make([]byte, cfg.Shards*wire.ClaimWordSize),
	}
	for s := range m.Claims {
		m.Claims[s] = NewClaim(me, uint16(s), owners, cfg)
		m.readReqs[s] = simnet.ReadReq{
			Target: witness,
			Key:    wordKeys[s],
			Length: wire.ClaimWordSize,
			Buf:    m.readBufs[s*wire.ClaimWordSize : s*wire.ClaimWordSize : (s+1)*wire.ClaimWordSize],
		}
	}
	m.task = node.Spawn(fmt.Sprintf("claim-mgr-%d", me), func(tk *simos.Task) {
		var step func()
		next := func() { tk.Sleep(m.Claims[0].Cfg.CheckEvery, step) }
		step = func() {
			if m.stopped {
				tk.Exit()
				return
			}
			m.round(tk, next)
		}
		step()
	})
	return m
}

// round performs one observe/bid cycle: batch-read the shard words
// this front-end does not hold (a holder's operands come from its own
// state), decide per-shard actions, post them as one CAS batch, then
// publish records for newly won shards. With nothing to read it
// decides at once: an empty batch would still cost the task an event.
func (m *ClaimManager) round(tk *simos.Task, next func()) {
	m.Rounds++
	m.unheld = m.unheld[:0]
	for s, c := range m.Claims {
		if !c.Held() {
			m.unheld = append(m.unheld, m.readReqs[s])
		}
	}
	if len(m.unheld) == 0 {
		m.decide(tk, nil, next)
		return
	}
	m.nic.RDMAReadBatch(tk, m.unheld, func(reads []simnet.ReadResult) { m.decide(tk, reads, next) })
}

// decide turns one round's reads (positional over the unheld shards, in
// shard order — only this task changes holdership, so the set is the
// one round posted) into a CAS batch.
func (m *ClaimManager) decide(tk *simos.Task, reads []simnet.ReadResult, next func()) {
	now := m.node.Eng.Now()
	m.casReqs = m.casReqs[:0]
	m.casShard = m.casShard[:0]
	m.casOps = m.casOps[:0]
	for s, c := range m.Claims {
		var cmp, swp uint64
		var op claimOp
		switch {
		case c.Held() && c.HandbackDue(now):
			cmp, swp = c.ReleaseBid()
			op = opClaimRelease
		case c.Held():
			cmp, swp = c.RenewBid()
			op = opClaimRenew
		default:
			rd := reads[0]
			reads = reads[1:]
			if rd.Err != nil {
				m.ReadErrors++
				continue
			}
			if !c.Observe(binary.LittleEndian.Uint64(rd.Data), now) {
				continue
			}
			cmp, swp = c.ClaimBid()
			op = opClaimBid
		}
		m.casReqs = append(m.casReqs, simnet.CASReq{Target: m.witness, Key: m.wordKeys[s], Compare: cmp, Swap: swp})
		m.casShard = append(m.casShard, uint16(s))
		m.casOps = append(m.casOps, op)
	}
	if len(m.casReqs) == 0 {
		next()
		return
	}
	// Validity is stamped from the instant the batch is POSTED (one
	// doorbell, one instant for every WR in it), not from when the
	// completions are observed — see the safety argument above.
	posted := m.node.Eng.Now()
	m.nic.RDMACompareSwapBatch(tk, m.casReqs, func(results []simnet.CASResult) {
		var won []uint16
		for i, res := range results {
			c := m.Claims[m.casShard[i]]
			if res.Err != nil {
				m.CASErrors++
				continue
			}
			ok := res.Prev == m.casReqs[i].Compare
			switch m.casOps[i] {
			case opClaimRenew:
				if ok {
					c.RenewWon(posted)
				} else {
					c.RenewLost(res.Prev, posted)
				}
			case opClaimBid:
				if ok {
					c.ClaimWon(posted)
					won = append(won, m.casShard[i])
				} else {
					c.ClaimLost(res.Prev, posted)
				}
			case opClaimRelease:
				if ok {
					c.ReleaseWon(posted)
				} else {
					c.ReleaseLost(res.Prev, posted)
				}
			}
		}
		m.publishRecords(tk, won, posted, next)
	})
}

// publishRecords writes descriptive claim records for freshly won
// shards, one after another. Observability only — a write failure does
// not affect holdership.
func (m *ClaimManager) publishRecords(tk *simos.Task, won []uint16, now sim.Time, then func()) {
	if len(won) == 0 || len(m.recKeys) == 0 {
		then()
		return
	}
	s := won[0]
	c := m.Claims[s]
	rec := wire.ClaimRecord{
		Shard:   s,
		Owner:   c.Me,
		Epoch:   c.Epoch(),
		Stamp:   c.stamp,
		GrantNS: int64(now),
		TTLNS:   int64(c.Cfg.TTL),
	}
	m.nic.RDMAWrite(tk, m.witness, m.recKeys[s], rec.Encode(), func(error) {
		m.publishRecords(tk, won[1:], now, then)
	})
}

// Valid reports whether this front-end may dispatch to shard at now.
func (m *ClaimManager) Valid(shard int, now sim.Time) bool {
	if shard < 0 || shard >= len(m.Claims) {
		return false
	}
	return m.Claims[shard].Valid(now)
}

// HeldValid returns how many shards this front-end validly holds at
// now (fairness metrics).
func (m *ClaimManager) HeldValid(now sim.Time) int {
	n := 0
	for _, c := range m.Claims {
		if c.Valid(now) {
			n++
		}
	}
	return n
}

// Shards returns the claim table size this manager drives.
func (m *ClaimManager) Shards() int { return len(m.Claims) }

// Stop ends the claim task (a crashing front-end's tasks die with the
// node; Stop is for controlled teardown). Held claims are not
// released: they expire and are reclaimed, exactly like a crash.
func (m *ClaimManager) Stop() {
	m.stopped = true
	if m.task != nil {
		m.task.Exit()
	}
}
