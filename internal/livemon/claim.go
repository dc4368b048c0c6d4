package livemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/tcpverbs"
	"rdmamon/internal/wire"
)

// portClaims is the control endpoint handing out the claim-table keys.
const portClaims = "rmon-claims"

// claimVault is the agent-side (witness) home of the front-end claim
// table: per-shard word and record regions mutated exclusively
// by remote one-sided operations. Each word gets its own region
// because the transport's atomic unit is the first eight bytes of a
// region; after registration the agent application plays no part in
// arbitration.
type claimVault struct {
	mu      sync.Mutex
	words   [][]byte
	recs    [][]byte
	wordMRs []*tcpverbs.MR
	recMRs  []*tcpverbs.MR
}

func (a *Agent) hostClaims(shards int) {
	v := &claimVault{
		words:   make([][]byte, shards),
		recs:    make([][]byte, shards),
		wordMRs: make([]*tcpverbs.MR, shards),
		recMRs:  make([]*tcpverbs.MR, shards),
	}
	a.cvault = v
	for s := 0; s < shards; s++ {
		word := make([]byte, wire.ClaimWordSize)
		rec := make([]byte, wire.ClaimRecordSize)
		v.words[s] = word
		v.recs[s] = rec
		v.wordMRs[s] = a.verbs.RegisterWritableMR(func() []byte {
			v.mu.Lock()
			defer v.mu.Unlock()
			return append([]byte(nil), word...)
		}, len(word), func(b []byte) {
			v.mu.Lock()
			defer v.mu.Unlock()
			copy(word, b)
		})
		v.recMRs[s] = a.verbs.RegisterWritableMR(func() []byte {
			v.mu.Lock()
			defer v.mu.Unlock()
			return append([]byte(nil), rec...)
		}, len(rec), func(b []byte) {
			v.mu.Lock()
			defer v.mu.Unlock()
			copy(rec, b)
		})
	}
	a.verbs.HandleCall(portClaims, func([]byte) []byte {
		reply := make([]byte, 2+8*shards)
		binary.BigEndian.PutUint16(reply[0:], uint16(shards))
		for s := 0; s < shards; s++ {
			binary.BigEndian.PutUint32(reply[2+8*s:], v.wordMRs[s].Key())
			binary.BigEndian.PutUint32(reply[6+8*s:], v.recMRs[s].Key())
		}
		return reply
	})
}

// ClaimShards returns the size of the claim table this agent hosts (0
// unless Config.HostClaims was set).
func (a *Agent) ClaimShards() int {
	if a.cvault == nil {
		return 0
	}
	return len(a.cvault.words)
}

// ClaimWord returns shard s's current claim word. Introspection only;
// front-ends mutate it with one-sided compare-and-swap.
func (a *Agent) ClaimWord(s int) uint64 {
	if a.cvault == nil || s < 0 || s >= len(a.cvault.words) {
		return 0
	}
	a.cvault.mu.Lock()
	defer a.cvault.mu.Unlock()
	return binary.LittleEndian.Uint64(a.cvault.words[s])
}

// ClaimRecordAt returns the descriptive record published by shard s's
// current holder, if any.
func (a *Agent) ClaimRecordAt(s int) (wire.ClaimRecord, error) {
	if a.cvault == nil || s < 0 || s >= len(a.cvault.recs) {
		return wire.ClaimRecord{}, fmt.Errorf("livemon: agent hosts no claim shard %d", s)
	}
	a.cvault.mu.Lock()
	raw := append([]byte(nil), a.cvault.recs[s]...)
	a.cvault.mu.Unlock()
	return wire.DecodeClaim(raw)
}

// claimClientOp tags what one shard's CAS this cycle was trying to do.
type claimClientOp uint8

const (
	opClientRenew claimClientOp = iota
	opClientBid
	opClientRelease
)

// ClaimClient drives one front-end's per-shard claim machines against
// a live witness agent, mirroring core.ClaimManager over tcpverbs
// instead of the simulated fabric. Time is this process's monotonic
// clock; the protocol never compares clocks across machines. Bids,
// renewals and releases go through CompareSwapFenced, so a mid-CAS
// redial cannot turn a win into a false loss and a stale-epoch bid
// surfaces as a fence instead of being retried forever.
type ClaimClient struct {
	conn     *tcpverbs.Conn
	wordKeys []uint32
	recKeys  []uint32
	start    time.Time

	mu     sync.Mutex
	claims []*core.Claim

	// CASErrors / ReadErrors count transport failures; the protocol
	// retries next cycle and lets validity lapse meanwhile. Fenced
	// counts CAS losses to a strictly newer epoch.
	CASErrors  uint64
	ReadErrors uint64
	Fenced     uint64

	paused bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// DialClaims connects front-end me (1-based) to the claim table hosted
// on the witness agent at addr. owners is the front-end ring size for
// the home-shard mapping (0 = no home preference: every front-end bids
// as home — against a one-shard table, that is HA). cfg durations are
// virtual-time valued but interpreted as wall-clock nanoseconds here;
// the zero value takes defaults derived from a 50ms poll, and the
// shard count always follows the witness's table.
func DialClaims(addr string, me uint16, owners int, cfg core.ClaimConfig) (*ClaimClient, error) {
	conn, err := tcpverbs.Dial(addr)
	if err != nil {
		return nil, err
	}
	reply, err := conn.Call(portClaims, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("livemon: claim key exchange: %w", err)
	}
	if len(reply) < 2 {
		conn.Close()
		return nil, fmt.Errorf("livemon: short claim key reply")
	}
	shards := int(binary.BigEndian.Uint16(reply[0:]))
	if shards == 0 || len(reply) < 2+8*shards {
		conn.Close()
		return nil, fmt.Errorf("livemon: claim key reply names %d shards with %d bytes", shards, len(reply))
	}
	cfg.Shards = shards
	cfg = cfg.WithDefaults(sim.Time(50 * time.Millisecond))
	l := &ClaimClient{
		conn:     conn,
		wordKeys: make([]uint32, shards),
		recKeys:  make([]uint32, shards),
		start:    time.Now(),
		claims:   make([]*core.Claim, shards),
		stop:     make(chan struct{}),
	}
	for s := 0; s < shards; s++ {
		l.wordKeys[s] = binary.BigEndian.Uint32(reply[2+8*s:])
		l.recKeys[s] = binary.BigEndian.Uint32(reply[6+8*s:])
		l.claims[s] = core.NewClaim(me, uint16(s), owners, cfg)
	}
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// now maps the monotonic clock onto the claim machines' timeline.
func (l *ClaimClient) now() sim.Time { return sim.Time(time.Since(l.start)) }

// Shards returns the claim-table size this client drives.
func (l *ClaimClient) Shards() int { return len(l.claims) }

// Valid reports whether this front-end may dispatch to shard right now
// — the fence to consult per request, with the routed back-end folded
// onto its shard by backend % Shards.
func (l *ClaimClient) Valid(shard int) bool {
	if shard < 0 || shard >= len(l.claims) {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.claims[shard].Valid(l.now())
}

// HeldValid returns how many shards this front-end validly holds.
func (l *ClaimClient) HeldValid() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	n := 0
	for _, c := range l.claims {
		if c.Valid(now) {
			n++
		}
	}
	return n
}

// Counters sums the per-shard takeover/renewal/deposal/handback counts.
func (l *ClaimClient) Counters() (takeovers, renewals, deposals, handbacks uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.claims {
		takeovers += c.Takeovers
		renewals += c.Renewals
		deposals += c.Deposals
		handbacks += c.Handbacks
	}
	return
}

// Errors returns the transport-failure and epoch-fence counts.
func (l *ClaimClient) Errors() (casErrors, readErrors, fenced uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.CASErrors, l.ReadErrors, l.Fenced
}

// Pause suspends the renew/observe loop without releasing anything —
// the live stand-in for a frozen front-end. Validity lapses on its
// own; survivors reclaim the orphaned shards after ExpireAfter, and a
// later Resume gets fenced shard by shard through failed renewals.
func (l *ClaimClient) Pause() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.paused = true
}

// Resume lifts a Pause.
func (l *ClaimClient) Resume() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.paused = false
}

// Close stops the claim loop and closes the connection. Held claims
// are not released: they expire and are reclaimed, exactly as if this
// front-end had crashed — which, as far as the protocol can tell, it
// has.
func (l *ClaimClient) Close() error {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.wg.Wait()
	return l.conn.Close()
}

func (l *ClaimClient) run() {
	defer l.wg.Done()
	every := time.Duration(l.claims[0].Cfg.CheckEvery)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.step()
		}
	}
}

// step is one observe/bid cycle over the whole table, one shard at a
// time (the live transport pipelines per connection; the simulated
// manager's doorbell batching has no tcpverbs equivalent).
func (l *ClaimClient) step() {
	l.mu.Lock()
	if l.paused {
		l.mu.Unlock()
		return
	}
	n := len(l.claims)
	l.mu.Unlock()
	for s := 0; s < n; s++ {
		select {
		case <-l.stop:
			return
		default:
		}
		l.stepShard(s)
	}
}

func (l *ClaimClient) stepShard(s int) {
	l.mu.Lock()
	c := l.claims[s]
	now := l.now()
	var cmp, swp uint64
	var op claimClientOp
	decided := true
	switch {
	case c.Held() && c.HandbackDue(now):
		cmp, swp = c.ReleaseBid()
		op = opClientRelease
	case c.Held():
		cmp, swp = c.RenewBid()
		op = opClientRenew
	default:
		decided = false
	}
	l.mu.Unlock()

	if !decided {
		raw, err := l.conn.RDMARead(l.wordKeys[s], wire.ClaimWordSize)
		if err != nil || len(raw) < wire.ClaimWordSize {
			l.mu.Lock()
			l.ReadErrors++
			l.mu.Unlock()
			return
		}
		word := binary.LittleEndian.Uint64(raw)
		l.mu.Lock()
		if !c.Observe(word, l.now()) {
			l.mu.Unlock()
			return
		}
		cmp, swp = c.ClaimBid()
		op = opClientBid
		l.mu.Unlock()
	}

	// Validity is stamped from the instant the CAS is posted, not from
	// when the reply lands (core.Claim's freeze-safe rule): a front-end
	// stalled between post and completion must not thaw into an
	// extended validity the others have already timed out.
	posted := l.now()
	prev, err := l.conn.CompareSwapFenced(l.wordKeys[s], cmp, swp)
	fenced := errors.Is(err, tcpverbs.ErrFenced)
	l.mu.Lock()
	if err != nil && !fenced {
		l.CASErrors++
		l.mu.Unlock()
		return
	}
	if fenced {
		l.Fenced++
	}
	won := !fenced && prev == cmp
	var rec wire.ClaimRecord
	publish := false
	switch op {
	case opClientRenew:
		if won {
			c.RenewWon(posted)
		} else {
			c.RenewLost(prev, posted)
		}
	case opClientRelease:
		if won {
			c.ReleaseWon(posted)
		} else {
			c.ReleaseLost(prev, posted)
		}
	case opClientBid:
		if won {
			c.ClaimWon(posted)
			rec = wire.ClaimRecord{
				Shard:   uint16(s),
				Owner:   c.Me,
				Epoch:   c.Epoch(),
				GrantNS: int64(posted),
				TTLNS:   int64(c.Cfg.TTL),
			}
			publish = true
		} else {
			c.ClaimLost(prev, posted)
		}
	}
	l.mu.Unlock()
	if publish {
		// Observability only; a failed write does not affect holdership.
		_ = l.conn.RDMAWrite(l.recKeys[s], rec.Encode())
	}
}
