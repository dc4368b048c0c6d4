// Package connpool is the connection-lifecycle manager shared by both
// transports: the simulated verbs fabric (QPs on simnet) and the live
// TCP verbs emulation (tcpverbs.Conn). It owns the part of connection
// scaling the paper never had to face — at O(10k) monitored back-ends
// a dedicated connection per target stops being affordable, so
// connections become a managed, budgeted, recycled resource
// (RDMAvisor's argument for datacenter-scale RDMA).
//
// The pool provides:
//
//   - on-demand acquisition: a probe asks for a connection to its
//     target; the pool hands back an existing one, tells the caller to
//     dial (within budgets), or sheds the request;
//   - explicit resource budgets: max live connections plus in-flight
//     dials (each holds an fd), bounded dial concurrency and a
//     token-bucket dial rate — exhausting any of them degrades
//     gracefully instead of dial-storming;
//   - quiet-first eviction: when a hot target needs a slot, the least
//     recently used idle connection of a quiet target is recycled
//     first, so budget pressure lands on back-ends whose staleness
//     SLO is already relaxed;
//   - idle GC with an epoch fence: every recycle (eviction, idle GC,
//     error, reset) bumps the target's epoch; a lease posted against
//     an older epoch fails the fence at completion and must be
//     replayed, never silently served stale (Storm's epoch protection
//     for recycled one-sided resources);
//   - per-target dial circuit breakers with jittered exponential
//     backoff, layered under the probe-level core.Failover breaker:
//     the pool protects the dial path, Failover protects the probe
//     path.
//
// The pool is deliberately transport-free: connections are opaque
// values the caller dials and closes, time is an injected nanosecond
// clock, and the backoff jitter RNG is seedable — so the simulated
// monitor drives it deterministically from the engine clock while the
// live monitor drives it from time.Now.
package connpool

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed pool.
var ErrClosed = errors.New("connpool: pool closed")

// Config tunes a pool. The zero value means "no budgets": unlimited
// conns and dial rate, no idle GC — useful for tests, not production.
type Config struct {
	// MaxConns caps live connections plus in-flight dials, which is
	// also the pool's fd budget: each holds one (0 = unlimited).
	MaxConns int
	// DialsPerSec is the sustained dial-rate budget, enforced by a
	// token bucket a quarter second deep (0 = unlimited).
	DialsPerSec float64
	// IdleAfterNS garbage-collects a connection idle this long, in
	// nanoseconds (0 = no idle GC; eviction still recycles).
	IdleAfterNS int64
	// BreakAfter consecutive dial/op failures open the target's
	// breaker (default 3); ReopenAfterNS later one half-open dial is
	// allowed through (default 1s).
	BreakAfter    int
	ReopenAfterNS int64
}

// The pool's fixed budgets. maxDialing bounds concurrent dial
// attempts: a dial storm against a flapping fleet is absorbed here
// instead of stampeding the dialer. backoffNS and backoffMaxNS bound the
// per-target redial backoff, doubled per consecutive failure with ±25%
// jitter.
const (
	maxDialing   = 16
	backoffNS    = 25 * int64(time.Millisecond)
	backoffMaxNS = 2 * int64(time.Second)
)

// dialBurst is the token bucket's depth: a quarter second of
// DialsPerSec, whole dials, at least one.
func (c Config) dialBurst() float64 { return float64(max(int(c.DialsPerSec/4), 1)) }

func (c Config) withDefaults() Config {
	if c.BreakAfter <= 0 {
		c.BreakAfter = 3
	}
	if c.ReopenAfterNS <= 0 {
		c.ReopenAfterNS = int64(time.Second)
	}
	return c
}

// Verdict is the pool's answer to an Acquire.
type Verdict int

const (
	// Conn: the lease carries a live connection; use it, then Release.
	Conn Verdict = iota
	// Dial: the pool reserved a dial slot, token and fd; the caller
	// must dial and report DialDone or DialFailed.
	Dial
	// Shed: no connection and no budget to make one — defer the work
	// (quiet targets) or fall over to a budget-free path (hot ones).
	Shed
)

// ShedReason says which budget or guard shed an Acquire.
type ShedReason int

const (
	ShedNone    ShedReason = iota
	ShedBreaker            // target's dial breaker is open
	ShedBackoff            // target is in dial backoff
	ShedDialing            // a dial to this target is already in flight
	ShedConns              // MaxConns reached, nothing evictable
	ShedFDs                // a dial aborted on a local fd limit (DialAborted)
	ShedRate               // dial token bucket empty
	ShedDialCap            // maxDialing concurrent dials reached
)

func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedBreaker:
		return "breaker"
	case ShedBackoff:
		return "backoff"
	case ShedDialing:
		return "dialing"
	case ShedConns:
		return "conns"
	case ShedFDs:
		return "fds"
	case ShedRate:
		return "dial-rate"
	case ShedDialCap:
		return "dial-cap"
	}
	return "?"
}

// Lease is one caller's epoch-fenced hold on a pooled connection.
type Lease[K comparable, C any] struct {
	Key   K
	Epoch uint64
	Conn  C
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	Live    int // connections currently installed
	Dialing int // dials currently in flight
	MaxLive int // high-water mark of Live+Dialing

	Dials      uint64 // dials started
	DialErrors uint64 // dials reported failed
	Evictions  uint64 // idle conns recycled to make room
	IdleGCs    uint64 // idle conns recycled by the idle timer
	Recycles   uint64 // conns recycled after an operation error

	FenceRejected uint64 // completions rejected by the epoch fence
	StaleReleases uint64 // releases of already-recycled leases

	BreakerOpens  uint64 // dial breakers tripped open
	BreakerCloses uint64 // dial breakers closed again

	// Sheds, indexed by ShedReason, counts deferred acquisitions.
	Sheds [ShedDialCap + 1]uint64
}

// entry is one target's state. Idle entries (conn installed, no
// leases out) sit on one of two LRU lists: quiet or hot, by the hot
// flag of their last acquisition.
type entry[K comparable, C any] struct {
	key   K
	conn  C
	has   bool
	epoch uint64

	inflight int
	hot      bool
	lastUsed int64

	prev, next *entry[K, C]
	list       int // 0 = none, 1 = quiet idle, 2 = hot idle

	dialing    bool
	fails      int   // consecutive dial/op failures
	backoff    int64 // current backoff, ns
	nextDialAt int64
	openUntil  int64 // breaker open until (0 = closed)
	halfOpen   bool  // one probe dial is out under a half-open breaker
}

// lruList is an intrusive doubly-linked LRU of idle entries.
type lruList[K comparable, C any] struct {
	head, tail *entry[K, C]
}

func (l *lruList[K, C]) push(e *entry[K, C]) { // to tail (most recent)
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *lruList[K, C]) remove(e *entry[K, C]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Pool manages connections keyed by target. Safe for concurrent use;
// in the simulator every call happens on the engine goroutine, so the
// lock is uncontended and decisions stay deterministic.
type Pool[K comparable, C any] struct {
	mu  sync.Mutex
	cfg Config
	now func() int64

	entries map[K]*entry[K, C]
	quiet   lruList[K, C] // idle conns of quiet targets (evicted first)
	hotIdle lruList[K, C] // idle conns of hot targets

	live    int
	dialing int

	tokens     float64
	lastRefill int64

	rng    *rand.Rand
	closed bool

	// OnClose, if set, is called (outside the pool lock is NOT
	// guaranteed; keep it cheap) with every connection the pool
	// recycles or closes, so the transport can release it.
	OnClose func(K, C)
	// OnDial, if set, observes every dial start with its timestamp —
	// the scale experiment audits the dial rate through it.
	OnDial func(K, int64)

	stats Stats
}

// New creates a pool with clock now (nanoseconds). The backoff jitter
// RNG is seeded from the system entropy pool; SeedJitter pins it.
func New[K comparable, C any](cfg Config, now func() int64) *Pool[K, C] {
	p := &Pool[K, C]{
		cfg:     cfg.withDefaults(),
		now:     now,
		entries: make(map[K]*entry[K, C]),
		rng:     rand.New(rand.NewSource(entropySeed())),
	}
	p.tokens = p.cfg.dialBurst()
	p.lastRefill = now()
	return p
}

func entropySeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.BigEndian.Uint64(b[:]))
}

// SeedJitter makes the backoff jitter deterministic (the simulated
// cluster and tests pin it; live deployments keep the entropy seed).
func (p *Pool[K, C]) SeedJitter(seed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = rand.New(rand.NewSource(seed))
}

func (p *Pool[K, C]) entry(key K) *entry[K, C] {
	e := p.entries[key]
	if e == nil {
		e = &entry[K, C]{key: key}
		p.entries[key] = e
	}
	return e
}

func (p *Pool[K, C]) refill(now int64) {
	if p.cfg.DialsPerSec <= 0 {
		return
	}
	dt := now - p.lastRefill
	if dt <= 0 {
		return
	}
	p.tokens += float64(dt) * p.cfg.DialsPerSec / 1e9
	if max := p.cfg.dialBurst(); p.tokens > max {
		p.tokens = max
	}
	p.lastRefill = now
}

func (p *Pool[K, C]) shed(r ShedReason) (Lease[K, C], Verdict, ShedReason) {
	p.stats.Sheds[r]++
	return Lease[K, C]{}, Shed, r
}

// Acquire asks for a connection to key. hot marks the caller as
// SLO-critical: hot acquisitions may evict any idle connection to
// make room, quiet ones only other quiet targets' — budget pressure
// sheds the quiet fleet first.
func (p *Pool[K, C]) Acquire(key K, hot bool) (Lease[K, C], Verdict, ShedReason) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return p.shed(ShedConns)
	}
	now := p.now()
	e := p.entry(key)
	e.hot = hot
	if e.has {
		if e.list != 0 {
			p.listOf(e).remove(e)
			e.list = 0
		}
		e.inflight++
		e.lastUsed = now
		return Lease[K, C]{Key: key, Epoch: e.epoch, Conn: e.conn}, Conn, ShedNone
	}
	// No connection: can we dial?
	if e.dialing {
		return p.shed(ShedDialing)
	}
	if e.openUntil != 0 && (now < e.openUntil || e.halfOpen) {
		return p.shed(ShedBreaker)
	}
	if now < e.nextDialAt {
		return p.shed(ShedBackoff)
	}
	if p.dialing >= maxDialing {
		return p.shed(ShedDialCap)
	}
	if p.cfg.MaxConns > 0 && p.live+p.dialing >= p.cfg.MaxConns {
		if !p.evictLocked(hot) {
			return p.shed(ShedConns)
		}
	}
	p.refill(now)
	if p.cfg.DialsPerSec > 0 {
		if p.tokens < 1 {
			return p.shed(ShedRate)
		}
		p.tokens--
	}
	// Past an open breaker's window this dial is the one half-open
	// probe; marking it only once the dial is granted keeps a later
	// shed (backoff, budgets) from closing the gate for good.
	e.halfOpen = e.openUntil != 0
	e.dialing = true
	p.dialing++
	if p.live+p.dialing > p.stats.MaxLive {
		p.stats.MaxLive = p.live + p.dialing
	}
	p.stats.Dials++
	if p.OnDial != nil {
		p.OnDial(key, now)
	}
	return Lease[K, C]{}, Dial, ShedNone
}

func (p *Pool[K, C]) listOf(e *entry[K, C]) *lruList[K, C] {
	if e.list == 2 {
		return &p.hotIdle
	}
	return &p.quiet
}

// evictLocked recycles the least recently used idle connection to
// free a slot: quiet targets first; hot callers may also claim a hot
// target's idle conn. Reports whether a slot was freed.
func (p *Pool[K, C]) evictLocked(hot bool) bool {
	victim := p.quiet.head
	if victim == nil && hot {
		victim = p.hotIdle.head
	}
	if victim == nil {
		return false
	}
	p.stats.Evictions++
	p.recycleLocked(victim)
	return true
}

// recycleLocked closes an entry's connection and bumps its epoch, so
// outstanding leases against it fail the fence.
func (p *Pool[K, C]) recycleLocked(e *entry[K, C]) {
	if !e.has {
		return
	}
	if e.list != 0 {
		p.listOf(e).remove(e)
		e.list = 0
	}
	conn := e.conn
	var zero C
	e.conn = zero
	e.has = false
	e.epoch++
	e.inflight = 0
	p.live--
	if p.OnClose != nil {
		p.OnClose(e.key, conn)
	}
}

// DialDone reports a successful dial and returns the caller's lease
// on the fresh connection.
func (p *Pool[K, C]) DialDone(key K, conn C) (Lease[K, C], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entry(key)
	if e.dialing {
		e.dialing = false
		p.dialing--
	}
	if p.closed {
		if p.OnClose != nil {
			p.OnClose(key, conn)
		}
		return Lease[K, C]{}, ErrClosed
	}
	if e.has {
		// A connection appeared while we dialed (shouldn't happen with
		// the ShedDialing guard, but be safe): drop ours.
		if p.OnClose != nil {
			p.OnClose(key, conn)
		}
	} else {
		e.conn = conn
		e.has = true
		e.epoch++
		p.live++
	}
	e.inflight++
	e.lastUsed = p.now()
	e.fails = 0
	e.backoff = 0
	e.nextDialAt = 0
	if e.openUntil != 0 {
		e.openUntil = 0
		e.halfOpen = false
		p.stats.BreakerCloses++
	}
	return Lease[K, C]{Key: key, Epoch: e.epoch, Conn: e.conn}, nil
}

// DialFailed reports a failed dial: the backoff grows, and enough
// consecutive failures open the target's breaker.
func (p *Pool[K, C]) DialFailed(key K) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entry(key)
	if e.dialing {
		e.dialing = false
		p.dialing--
	}
	p.stats.DialErrors++
	p.failLocked(e)
}

// DialAborted reports a dial that failed before reaching the target —
// a local resource failure (process fd limit, CM queue full) rather
// than the target misbehaving. The dial slot frees and the error is
// counted, but the target's breaker and backoff are NOT charged: when
// the local resource recovers, the target is dialable immediately.
// Callers should shed/defer the probe instead of failing it.
func (p *Pool[K, C]) DialAborted(key K) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entry(key)
	if e.dialing {
		e.dialing = false
		p.dialing--
	}
	p.stats.DialErrors++
	p.stats.Sheds[ShedFDs]++
}

// failLocked advances an entry's failure bookkeeping (dial failures
// and operation errors both count toward the breaker).
func (p *Pool[K, C]) failLocked(e *entry[K, C]) {
	e.fails++
	if e.backoff <= 0 {
		e.backoff = backoffNS
	} else {
		e.backoff = min(2*e.backoff, backoffMaxNS)
	}
	jitter := 1 + 0.25*(2*p.rng.Float64()-1)
	e.nextDialAt = p.now() + int64(float64(e.backoff)*jitter)
	if e.halfOpen {
		// The half-open probe failed: re-open for another full window.
		e.halfOpen = false
		e.openUntil = p.now() + p.cfg.ReopenAfterNS
		p.stats.BreakerOpens++
		return
	}
	if e.openUntil == 0 && e.fails >= p.cfg.BreakAfter {
		e.openUntil = p.now() + p.cfg.ReopenAfterNS
		p.stats.BreakerOpens++
	}
}

// Ready reports whether Acquire(key) would hand back a connection
// immediately — no dial, no shed. Callers planning a doorbell batch
// use it to extend the batch only over targets that can join without
// dialing. (Single-threaded callers — the simulator — get an exact
// answer; concurrent ones a hint.)
func (p *Pool[K, C]) Ready(key K) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	e := p.entries[key]
	return e != nil && e.has
}

// Invalidate recycles a lease's connection WITHOUT charging the
// target's breaker or backoff: the transport reported the connection
// itself died (listener reset, QP error) rather than the target
// misbehaving, so the caller may redial immediately. A stale lease is
// a counted no-op, like Release.
func (p *Pool[K, C]) Invalidate(l Lease[K, C]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[l.Key]
	if e == nil || !e.has || e.epoch != l.Epoch {
		p.stats.StaleReleases++
		return
	}
	if e.inflight > 0 {
		e.inflight--
	}
	p.stats.Recycles++
	p.recycleLocked(e)
}

// Fence checks a completion's lease against the target's current
// epoch: true means the data may be served; false means the
// connection was recycled while the operation was in flight — the
// result must be discarded and the operation replayed.
func (p *Pool[K, C]) Fence(l Lease[K, C]) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[l.Key]
	if e != nil && e.has && e.epoch == l.Epoch {
		return true
	}
	p.stats.FenceRejected++
	return false
}

// Release returns a lease. A non-nil opErr recycles the connection
// (next acquire redials) and feeds the target's breaker; a clean
// release parks the connection on the idle LRU.
func (p *Pool[K, C]) Release(l Lease[K, C], opErr error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[l.Key]
	if e == nil || !e.has || e.epoch != l.Epoch {
		p.stats.StaleReleases++
		return
	}
	if e.inflight > 0 {
		e.inflight--
	}
	e.lastUsed = p.now()
	if opErr != nil {
		p.stats.Recycles++
		p.recycleLocked(e)
		p.failLocked(e)
		return
	}
	e.fails = 0
	if e.halfOpen || e.openUntil != 0 {
		e.halfOpen = false
		e.openUntil = 0
		p.stats.BreakerCloses++
	}
	if e.inflight == 0 && e.list == 0 {
		if e.hot {
			e.list = 2
		} else {
			e.list = 1
		}
		p.listOf(e).push(e)
	}
}

// GC recycles idle connections older than IdleAfterNS. Call it
// periodically (each monitor sweep; a ticker on the live side).
func (p *Pool[K, C]) GC() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.IdleAfterNS <= 0 || p.closed {
		return
	}
	cutoff := p.now() - p.cfg.IdleAfterNS
	for _, l := range []*lruList[K, C]{&p.quiet, &p.hotIdle} {
		for l.head != nil && l.head.lastUsed <= cutoff {
			p.stats.IdleGCs++
			p.recycleLocked(l.head)
		}
	}
}

// BreakersOpen counts targets whose dial breaker is currently open.
func (p *Pool[K, C]) BreakersOpen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	now := p.now()
	for _, e := range p.entries {
		if e.openUntil != 0 && now < e.openUntil {
			n++
		}
	}
	return n
}

// Stats snapshots the pool's counters.
func (p *Pool[K, C]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Live = p.live
	s.Dialing = p.dialing
	return s
}

// Close recycles every connection and rejects further acquisitions.
// Idempotent. Outstanding leases become stale (their Release is a
// counted no-op), so Close never blocks on in-flight work.
func (p *Pool[K, C]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, e := range p.entries {
		p.recycleLocked(e)
	}
}
