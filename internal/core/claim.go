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
	// ExpireAfter is how long a word must sit unchanged before another
	// front-end treats the claim as orphaned and bids. Safety requires
	// it to exceed TTL by more than a CAS completion; the sanitizer
	// enforces ExpireAfter >= TTL + 2*CheckEvery (default 10 polls).
	ExpireAfter sim.Time
	// CheckEvery is the renew/observe cadence (default 2 polls).
	CheckEvery sim.Time
}

// TTL is how long a holder trusts a shard claim after each confirmed
// renewal: three check periods (6 polls at the defaults).
func (c ClaimConfig) TTL() sim.Time { return 3 * c.CheckEvery }

// VacantGrace is how long a foreigner leaves a vacant word to its home
// front-end before adopting it: two check periods.
func (c ClaimConfig) VacantGrace() sim.Time { return 2 * c.CheckEvery }

// HandbackAfter is how long a foreigner keeps an adopted shard before
// releasing it back toward its home: twice ExpireAfter.
func (c ClaimConfig) HandbackAfter() sim.Time { return 2 * c.ExpireAfter }

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
	if c.ExpireAfter <= 0 {
		c.ExpireAfter = c.TTL() + 4*poll
	}
	if min := c.TTL() + 2*c.CheckEvery; c.ExpireAfter < min {
		c.ExpireAfter = min
	}
	return c
}

// Claim is the per-shard claim state machine for one front-end. Like
// Failover it is clock-free and outcome-driven; a ClaimTable plans its
// CAS each round and feeds back what happened, passing now explicitly.
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

// observe feeds a non-holder's read of the shard word and reports
// whether a claim bid is due: a vacant word immediately for the home
// front-end and after VacantGrace for a foreigner; an owned word once
// it has sat unchanged for ExpireAfter (plus VacantGrace for a
// foreigner, so a live home beats foreigners to its own orphans).
func (c *Claim) observe(word uint64, now sim.Time) bool {
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
		return now-c.lastChangeAt >= c.Cfg.VacantGrace()
	}
	wait := c.Cfg.ExpireAfter
	if !c.Home {
		wait += c.Cfg.VacantGrace()
	}
	return now-c.lastChangeAt >= wait
}

func (c *Claim) String() string {
	role := "foreign"
	if c.Home {
		role = "home"
	}
	return fmt.Sprintf("claim[fe=%d shard=%d %s] held=%v epoch=%d stamp=%d until=%v",
		c.Me, c.Shard, role, c.held, c.epoch, c.stamp, c.validUntil)
}

// ClaimOp names what a planned claim CAS is for.
type ClaimOp uint8

const (
	// ClaimRenew is a holder's heartbeat: (me,e,s) -> (me,e,s+1).
	ClaimRenew ClaimOp = iota
	// ClaimBid installs me at the observed word's epoch+1, stamp 0.
	ClaimBid
	// ClaimRelease hands an adopted shard back: (me,e,s) -> (0,e,s).
	ClaimRelease
)

// ClaimCAS is one compare-and-swap a claim round posts on a shard word.
type ClaimCAS struct {
	Shard         uint16
	Op            ClaimOp
	Compare, Swap uint64
}

// ClaimRead is the completion of one claim-word read: the word's eight
// bytes, or the error that lost it. It is the simulated fabric's read
// completion; the live driver converts tcpverbs.BatchResult, which has
// the same shape.
type ClaimRead = simnet.ReadResult

// ClaimTable is one front-end's claim machines, one per shard, and the
// one decision a claim round makes over them. Like Claim it is
// clock-free; a driver (ClaimManager over the simulated fabric,
// livemon.ClaimClient over tcpverbs) only moves bytes:
//
//	shards := t.StartRound()          // read these words
//	cas := t.Plan(now, reads)         // reads positional over shards
//	t.Complete(cas[i], prev, won, at) // per CAS that completed
type ClaimTable struct {
	Claims []*Claim // indexed by shard

	// CASErrors / ReadErrors count transport failures (timeouts during
	// partitions or witness downtime); the protocol retries next round
	// and lets validity lapse. Rounds counts started rounds.
	CASErrors  uint64
	ReadErrors uint64
	Rounds     uint64

	unheld []uint16
	cas    []ClaimCAS
}

// NewClaimTable builds cfg.Shards claim machines for front-end me
// (1-based) in a ring of owners front-ends. The home mapping is shard %
// owners; owners == 0 means no home preference — every front-end bids
// as home, which on a one-shard table is HA: a vacant word is bid on at
// once, an orphan after ExpireAfter, and nothing is ever handed back.
func NewClaimTable(me uint16, owners int, cfg ClaimConfig) *ClaimTable {
	cfg = cfg.WithDefaults(0)
	t := &ClaimTable{Claims: make([]*Claim, cfg.Shards)}
	for s := range t.Claims {
		home := owners <= 0 || s%owners == int(me)-1
		t.Claims[s] = &Claim{Cfg: cfg, Me: me, Shard: uint16(s), Home: home}
	}
	return t
}

// StartRound counts a round and returns the shards whose words it must
// read, in shard order: the unheld ones (a holder's operands come from
// its own state). The slice is the table's scratch.
func (t *ClaimTable) StartRound() []uint16 {
	t.Rounds++
	t.unheld = t.unheld[:0]
	for s, c := range t.Claims {
		if !c.held {
			t.unheld = append(t.unheld, uint16(s))
		}
	}
	return t.unheld
}

// Plan turns one round's reads — positional over StartRound's shards,
// which only the round itself changes — into the round's CAS list, in
// shard order: a held shard is released if its handback is due and
// renewed otherwise; an unheld shard is bid on once its observed word
// invites a bid. A failed or short read skips its shard and counts.
// The slice is the table's scratch, valid until the next Plan.
func (t *ClaimTable) Plan(now sim.Time, reads []ClaimRead) []ClaimCAS {
	t.cas = t.cas[:0]
	for s, c := range t.Claims {
		op := ClaimRenew
		cmp := wire.PackClaimWord(c.Me, c.epoch, c.stamp)
		var swp uint64
		switch {
		case c.held && !c.Home && now-c.heldSince >= c.Cfg.HandbackAfter():
			// Zero the owner, keep epoch and stamp: the next winner's
			// epoch is still strictly larger.
			op, swp = ClaimRelease, wire.PackClaimWord(wire.ClaimVacantOwner, c.epoch, c.stamp)
		case c.held:
			swp = wire.PackClaimWord(c.Me, c.epoch, c.stamp+1)
		default:
			rd := reads[0]
			reads = reads[1:]
			if rd.Err != nil || len(rd.Data) < wire.ClaimWordSize {
				t.ReadErrors++
				continue
			}
			if !c.observe(binary.LittleEndian.Uint64(rd.Data), now) {
				continue
			}
			op, cmp = ClaimBid, c.lastWord
			swp = wire.PackClaimWord(c.Me, wire.WordEpoch(c.lastWord)+1, 0)
		}
		t.cas = append(t.cas, ClaimCAS{Shard: uint16(s), Op: op, Compare: cmp, Swap: swp})
	}
	return t.cas
}

// Complete applies one planned CAS's outcome: won reports that the
// swap applied (a fenced transport counts its own replayed win), prev
// is the word the witness held. Validity is stamped from posted, the
// instant the CAS was posted, never from the completion (see above). A
// lost bid restarts patience from prev; a lost renew or release
// deposes. A CAS lost in transport is not completed: the machine is
// unchanged and the next round retries.
func (t *ClaimTable) Complete(cas ClaimCAS, prev uint64, won bool, posted sim.Time) {
	c := t.Claims[cas.Shard]
	c.lastChangeAt, c.seen = posted, true
	if !won {
		c.lastWord = prev
		if cas.Op != ClaimBid {
			c.held = false
			c.validUntil = min(c.validUntil, posted)
			c.Deposals++
			if c.OnDepose != nil {
				c.OnDepose(c.Shard, c.epoch, posted)
			}
		}
		return
	}
	c.lastWord = cas.Swap
	switch cas.Op {
	case ClaimBid:
		c.held, c.epoch, c.stamp, c.heldSince = true, wire.WordEpoch(cas.Swap), 0, posted
		c.validUntil = posted + c.Cfg.TTL()
		c.Takeovers++
		if c.OnAcquire != nil {
			c.OnAcquire(c.Shard, c.epoch, posted, c.validUntil)
		}
	case ClaimRenew:
		c.stamp++
		c.validUntil = posted + c.Cfg.TTL()
		c.Renewals++
		if c.OnRenew != nil {
			c.OnRenew(c.Shard, c.epoch, posted, c.validUntil)
		}
	case ClaimRelease:
		c.held = false
		c.validUntil = min(c.validUntil, posted)
		c.Handbacks++
		if c.OnRelease != nil {
			c.OnRelease(c.Shard, c.epoch, posted)
		}
	}
}

// Valid reports whether this front-end may dispatch to shard at now.
func (t *ClaimTable) Valid(shard int, now sim.Time) bool {
	return shard >= 0 && shard < len(t.Claims) && t.Claims[shard].Valid(now)
}

// HeldValid returns how many shards this front-end validly holds at
// now (fairness metrics).
func (t *ClaimTable) HeldValid(now sim.Time) int {
	n := 0
	for _, c := range t.Claims {
		if c.Valid(now) {
			n++
		}
	}
	return n
}

// Counters sums the per-shard takeover/renewal/deposal/handback counts.
func (t *ClaimTable) Counters() (takeovers, renewals, deposals, handbacks uint64) {
	for _, c := range t.Claims {
		takeovers += c.Takeovers
		renewals += c.Renewals
		deposals += c.Deposals
		handbacks += c.Handbacks
	}
	return
}

// Shards returns the table size.
func (t *ClaimTable) Shards() int { return len(t.Claims) }

// ClaimVault hosts the per-shard claim words in writable registered
// regions on the witness node. Each word gets its own region because
// the fabric's atomic unit is the first eight bytes of a region; after
// registration the witness CPU plays no part in arbitration.
type ClaimVault struct {
	words   [][]byte
	WordMRs []*simnet.MR
}

// NewClaimVault registers shards claim words on the witness NIC.
func NewClaimVault(nic *simnet.NIC, shards int) *ClaimVault {
	v := &ClaimVault{
		words:   make([][]byte, shards),
		WordMRs: make([]*simnet.MR, shards),
	}
	for s := 0; s < shards; s++ {
		word := make([]byte, wire.ClaimWordSize)
		v.words[s] = word
		v.WordMRs[s] = nic.RegisterWritableMR(simnet.StaticSource(word), len(word),
			func(b []byte) { copy(word, b) })
	}
	return v
}

// WordKeys returns the registered keys of the claim words, indexed by
// shard.
func (v *ClaimVault) WordKeys() []uint32 {
	keys := make([]uint32, len(v.WordMRs))
	for i, mr := range v.WordMRs {
		keys[i] = mr.Key()
	}
	return keys
}

// ClaimManager drives one front-end's claim table over the fabric: a
// task that, every CheckEvery, reads every shard word it does not hold
// in one doorbell, then posts the round's renewals, bids and handback
// releases as a single CAS batch — at most two doorbells per round
// regardless of shard count, one when it holds every shard.
type ClaimManager struct {
	*ClaimTable

	node     *simos.Node
	nic      *simnet.NIC
	witness  int
	wordKeys []uint32

	// reusable per-round scratch
	readReqs []simnet.ReadReq // one per shard, each with its word buffer
	reads    []simnet.ReadReq // this round's: the unheld shards
	results  []simnet.ReadResult
	casReqs  []simnet.CASReq
}

// StartClaimManager spawns the claim task for front-end me (1-based)
// on node. The shard words live on the witness under wordKeys (indexed
// by shard); owners is the front-end ring size for the home mapping
// (see NewClaimTable).
func StartClaimManager(node *simos.Node, nic *simnet.NIC, witness int, wordKeys []uint32, me uint16, owners int, cfg ClaimConfig) *ClaimManager {
	cfg = cfg.WithDefaults(0)
	if len(wordKeys) < cfg.Shards {
		cfg.Shards = len(wordKeys)
	}
	m := &ClaimManager{
		ClaimTable: NewClaimTable(me, owners, cfg),
		node:       node,
		nic:        nic,
		witness:    witness,
		wordKeys:   wordKeys,
		readReqs:   make([]simnet.ReadReq, cfg.Shards),
		results:    make([]simnet.ReadResult, cfg.Shards),
	}
	bufs := make([]byte, cfg.Shards*wire.ClaimWordSize)
	for s := range m.readReqs {
		m.readReqs[s] = simnet.ReadReq{
			Target: witness,
			Key:    wordKeys[s],
			Length: wire.ClaimWordSize,
			Buf:    bufs[s*wire.ClaimWordSize : s*wire.ClaimWordSize : (s+1)*wire.ClaimWordSize],
		}
	}
	node.Spawn(fmt.Sprintf("claim-mgr-%d", me), func(tk *simos.Task) {
		var step func()
		next := func() { tk.Sleep(cfg.CheckEvery, step) }
		step = func() { m.round(tk, next) }
		step()
	})
	return m
}

// round performs one claim round: batch-read the unheld words, plan,
// post the plan as one CAS batch and complete each CAS. With nothing to
// read it plans at once: an empty batch would still cost the task an
// event.
func (m *ClaimManager) round(tk *simos.Task, next func()) {
	m.reads = m.reads[:0]
	for _, s := range m.StartRound() {
		m.reads = append(m.reads, m.readReqs[s])
	}
	if len(m.reads) == 0 {
		m.post(tk, nil, next)
		return
	}
	m.nic.RDMAReadBatchInto(tk, m.reads, m.results, func(reads []ClaimRead) { m.post(tk, reads, next) })
}

// post plans the round from its reads and posts the plan. Validity is
// stamped from the instant the batch is POSTED (one doorbell, one
// instant for every WR in it), not from when the completions are
// observed — see Complete.
func (m *ClaimManager) post(tk *simos.Task, reads []ClaimRead, next func()) {
	posted := m.node.Eng.Now()
	cas := m.Plan(posted, reads)
	if len(cas) == 0 {
		next()
		return
	}
	m.casReqs = m.casReqs[:0]
	for _, op := range cas {
		m.casReqs = append(m.casReqs, simnet.CASReq{Target: m.witness, Key: m.wordKeys[op.Shard], Compare: op.Compare, Swap: op.Swap})
	}
	m.nic.RDMACompareSwapBatch(tk, m.casReqs, func(results []simnet.CASResult) {
		for i, res := range results {
			if res.Err != nil {
				m.CASErrors++
			} else {
				m.Complete(cas[i], res.Prev, res.Prev == cas[i].Compare, posted)
			}
		}
		next()
	})
}
