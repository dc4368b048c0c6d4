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
// table: per-shard word regions mutated exclusively by remote one-sided
// operations. Each word gets its own region because the transport's
// atomic unit is the first eight bytes of a region; after registration
// the agent application plays no part in arbitration.
type claimVault struct {
	mu      sync.Mutex
	words   [][]byte
	wordMRs []*tcpverbs.MR
}

func (a *Agent) hostClaims(shards int) {
	v := &claimVault{
		words:   make([][]byte, shards),
		wordMRs: make([]*tcpverbs.MR, shards),
	}
	a.cvault = v
	for s := 0; s < shards; s++ {
		word := make([]byte, wire.ClaimWordSize)
		v.words[s] = word
		v.wordMRs[s] = a.verbs.RegisterWritableMR(func() []byte {
			v.mu.Lock()
			defer v.mu.Unlock()
			return append([]byte(nil), word...)
		}, len(word), func(b []byte) {
			v.mu.Lock()
			defer v.mu.Unlock()
			copy(word, b)
		})
	}
	a.verbs.HandleCall(portClaims, func([]byte) []byte {
		reply := make([]byte, 2+4*shards)
		binary.BigEndian.PutUint16(reply[0:], uint16(shards))
		for s := 0; s < shards; s++ {
			binary.BigEndian.PutUint32(reply[2+4*s:], v.wordMRs[s].Key())
		}
		return reply
	})
}

// ClaimClient drives one front-end's claim table against a live witness
// agent: the same round as core.ClaimManager, over tcpverbs instead of
// the simulated fabric. Time is this process's monotonic clock; the
// protocol never compares clocks across machines. Bids, renewals and
// releases go through CompareSwapFenced, so a mid-CAS redial cannot
// turn a win into a false loss and a stale-epoch bid surfaces as a
// fence instead of being retried forever.
type ClaimClient struct {
	conn     *tcpverbs.Conn
	wordKeys []uint32
	start    time.Time

	mu     sync.Mutex
	table  *core.ClaimTable
	fenced uint64 // CAS losses to a strictly newer epoch
	paused bool

	// round scratch, owned by the run goroutine
	reqs  []tcpverbs.BatchRead
	res   []tcpverbs.BatchResult
	reads []core.ClaimRead

	loops *loops // the claim rounds
}

// DialClaims connects front-end me (1-based) to the claim table hosted
// on the witness agent at addr. owners is the front-end ring size for
// the home-shard mapping (0 = no home preference: every front-end bids
// as home — against a one-shard table, that is HA). cfg durations are
// virtual-time valued but interpreted as wall-clock nanoseconds here;
// the zero value takes defaults derived from a 50ms poll, and the
// shard count always follows the witness's table.
func DialClaims(addr string, me uint16, owners int, cfg core.ClaimConfig) (*ClaimClient, error) {
	if me == wire.ClaimVacantOwner {
		return nil, fmt.Errorf("livemon: claim owner %d is the vacant owner", me)
	}
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
	if shards == 0 || len(reply) < 2+4*shards {
		conn.Close()
		return nil, fmt.Errorf("livemon: claim key reply names %d shards with %d bytes", shards, len(reply))
	}
	cfg.Shards = shards
	l := &ClaimClient{
		conn:     conn,
		wordKeys: make([]uint32, shards),
		start:    time.Now(),
		table:    core.NewClaimTable(me, owners, cfg.WithDefaults(sim.Time(50*time.Millisecond))),
		loops:    newLoops(),
	}
	for s := 0; s < shards; s++ {
		l.wordKeys[s] = binary.BigEndian.Uint32(reply[2+4*s:])
	}
	l.loops.every(time.Duration(l.table.Claims[0].Cfg.CheckEvery), false, l.round)
	return l, nil
}

// now maps the monotonic clock onto the claim machines' timeline.
func (l *ClaimClient) now() sim.Time { return sim.Time(time.Since(l.start)) }

// Shards returns the claim-table size this client drives.
func (l *ClaimClient) Shards() int { return l.table.Shards() }

// HeldValid returns how many shards this front-end validly holds.
func (l *ClaimClient) HeldValid() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.table.HeldValid(l.now())
}

// Counters sums the per-shard takeover/renewal/deposal/handback counts.
func (l *ClaimClient) Counters() (takeovers, renewals, deposals, handbacks uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.table.Counters()
}

// Errors returns the transport-failure and epoch-fence counts.
func (l *ClaimClient) Errors() (casErrors, readErrors, fenced uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.table.CASErrors, l.table.ReadErrors, l.fenced
}

// pause suspends the claim rounds without releasing anything — the
// live stand-in for a frozen front-end, a fault hook for tests.
// Validity lapses on its own; survivors reclaim the orphaned shards
// after ExpireAfter, and a later resume gets fenced shard by shard
// through failed renewals.
func (l *ClaimClient) pause() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.paused = true
}

// resume lifts a pause.
func (l *ClaimClient) resume() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.paused = false
}

// Close stops the claim loop and closes the connection. Held claims
// are not released: they expire and are reclaimed, exactly as if this
// front-end had crashed — which, as far as the protocol can tell, it
// has. Idempotent and safe for concurrent use; every caller observes
// the first teardown's error.
func (l *ClaimClient) Close() error {
	return l.loops.close(l.conn.Close)
}

// round is one claim round: every unheld word in one pipelined read
// batch (a transport error fails each of its reads), the plan, then
// each planned CAS in turn — the connection serializes verbs, so there
// is no CAS doorbell to share.
func (l *ClaimClient) round() {
	l.mu.Lock()
	if l.paused {
		l.mu.Unlock()
		return
	}
	l.reqs = l.reqs[:0]
	for _, s := range l.table.StartRound() {
		l.reqs = append(l.reqs, tcpverbs.BatchRead{RKey: l.wordKeys[s], Length: wire.ClaimWordSize})
	}
	l.mu.Unlock()
	var err error
	if len(l.reqs) > 0 {
		l.res, err = l.conn.RDMAReadBatchInto(l.reqs, l.res)
	}
	l.reads = l.reads[:0]
	for i := range l.reqs {
		rd := core.ClaimRead{Err: err}
		if err == nil {
			rd = core.ClaimRead(l.res[i])
		}
		l.reads = append(l.reads, rd)
	}
	l.mu.Lock()
	plan := l.table.Plan(l.now(), l.reads)
	l.mu.Unlock()
	for _, op := range plan {
		if l.loops.stopped() {
			return
		}
		l.post(op)
	}
}

// post performs one planned CAS, stamped with its own post instant.
func (l *ClaimClient) post(op core.ClaimCAS) {
	posted := l.now()
	prev, err := l.conn.CompareSwapFenced(l.wordKeys[op.Shard], op.Compare, op.Swap)
	fenced := errors.Is(err, tcpverbs.ErrFenced)
	l.mu.Lock()
	defer l.mu.Unlock()
	if fenced {
		l.fenced++
	}
	if err != nil && !fenced {
		l.table.CASErrors++
	} else {
		l.table.Complete(op, prev, !fenced && prev == op.Compare, posted)
	}
}
