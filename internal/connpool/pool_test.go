package connpool

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced nanosecond clock.
type fakeClock struct{ now int64 }

func (c *fakeClock) fn() func() int64        { return func() int64 { return c.now } }
func (c *fakeClock) advance(d time.Duration) { c.now += int64(d) }

var errOp = errors.New("op failed")

// dialAndHold drives the Acquire→Dial→DialDone handshake for tests.
func dialAndHold(t *testing.T, p *Pool[int, string], key int, hot bool) Lease[int, string] {
	t.Helper()
	_, v, r := p.Acquire(key, hot)
	if v != Dial {
		t.Fatalf("Acquire(%d): verdict %v (shed %v), want Dial", key, v, r)
	}
	l, err := p.DialDone(key, "conn")
	if err != nil {
		t.Fatalf("DialDone(%d): %v", key, err)
	}
	return l
}

func TestAcquireDialReuse(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 4}, clk.fn())
	p.SeedJitter(1)

	l := dialAndHold(t, p, 7, true)
	if !p.Fence(l) {
		t.Fatal("fresh lease failed fence")
	}
	p.Release(l, nil)

	// Second acquire reuses the idle conn, same epoch, no dial.
	l2, v, _ := p.Acquire(7, true)
	if v != Conn || l2.Epoch != l.Epoch {
		t.Fatalf("reacquire: verdict %v epoch %d, want Conn epoch %d", v, l2.Epoch, l.Epoch)
	}
	p.Release(l2, nil)
	s := p.Stats()
	if s.Dials != 1 || s.Live != 1 {
		t.Fatalf("stats: dials %d live %d, want 1/1", s.Dials, s.Live)
	}
}

func TestEpochFenceOnRecycle(t *testing.T) {
	clk := &fakeClock{}
	var closed []int
	p := New[int, string](Config{MaxConns: 4}, clk.fn())
	p.SeedJitter(1)
	p.OnClose = func(k int, _ string) { closed = append(closed, k) }

	l := dialAndHold(t, p, 1, true)
	// The op fails: Release recycles the conn and bumps the epoch.
	p.Release(l, errOp)
	if len(closed) != 1 || closed[0] != 1 {
		t.Fatalf("recycle did not close conn: %v", closed)
	}
	if p.Fence(l) {
		t.Fatal("stale lease passed fence after recycle")
	}
	s := p.Stats()
	if s.Recycles != 1 || s.FenceRejected != 1 || s.Live != 0 {
		t.Fatalf("stats after recycle: %+v", s)
	}
	// Releasing the stale lease again is a counted no-op.
	p.Release(l, nil)
	if got := p.Stats().StaleReleases; got != 1 {
		t.Fatalf("stale releases = %d, want 1", got)
	}
}

func TestQuietFirstEviction(t *testing.T) {
	clk := &fakeClock{}
	var closed []int
	p := New[int, string](Config{MaxConns: 2}, clk.fn())
	p.SeedJitter(1)
	p.OnClose = func(k int, _ string) { closed = append(closed, k) }

	lq := dialAndHold(t, p, 1, false) // quiet
	p.Release(lq, nil)
	clk.advance(time.Millisecond)
	lh := dialAndHold(t, p, 2, true) // hot
	p.Release(lh, nil)

	// Pool is full (2/2). A hot acquire of a third target must evict
	// the quiet idle conn (target 1), not the hot one.
	_, v, _ := p.Acquire(3, true)
	if v != Dial {
		t.Fatalf("hot acquire at capacity: verdict %v, want Dial (after eviction)", v)
	}
	if len(closed) != 1 || closed[0] != 1 {
		t.Fatalf("evicted %v, want quiet target 1", closed)
	}
	if _, err := p.DialDone(3, "c3"); err != nil {
		t.Fatal(err)
	}
	// The evicted target's old lease fences stale.
	if p.Fence(lq) {
		t.Fatal("lease on evicted conn passed fence")
	}

	// A quiet acquire of a fourth target has only hot idle conns to
	// evict — it must shed instead.
	_, v, r := p.Acquire(4, false)
	if v != Shed || r != ShedConns {
		t.Fatalf("quiet acquire: verdict %v reason %v, want Shed/conns", v, r)
	}
	if got := p.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestInflightConnsAreNeverEvicted(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 1}, clk.fn())
	p.SeedJitter(1)

	l := dialAndHold(t, p, 1, false) // quiet but in flight
	_, v, r := p.Acquire(2, true)
	if v != Shed || r != ShedConns {
		t.Fatalf("verdict %v reason %v, want Shed/conns (in-flight conn pinned)", v, r)
	}
	if !p.Fence(l) {
		t.Fatal("in-flight lease must stay valid")
	}
	p.Release(l, nil)
}

func TestDialRateTokenBucket(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 100, DialsPerSec: 10}, clk.fn())
	p.SeedJitter(1)

	// Burst of 2 (a quarter second of 10/s, whole dials) allowed, third
	// sheds on rate.
	for k := 0; k < 2; k++ {
		if _, v, r := p.Acquire(k, true); v != Dial {
			t.Fatalf("dial %d: verdict %v (%v)", k, v, r)
		}
	}
	if _, v, r := p.Acquire(2, true); v != Shed || r != ShedRate {
		t.Fatalf("verdict %v reason %v, want Shed/dial-rate", v, r)
	}
	// 100ms refills one token at 10/s.
	clk.advance(100 * time.Millisecond)
	if _, v, r := p.Acquire(2, true); v != Dial {
		t.Fatalf("after refill: verdict %v (%v), want Dial", v, r)
	}
	if got := p.Stats().Sheds[ShedRate]; got != 1 {
		t.Fatalf("rate sheds = %d, want 1", got)
	}
}

// TestFDBudgetCountsDialsInFlight: MaxConns is the pool's fd budget,
// and a dial in flight holds an fd as a live connection does.
func TestFDBudgetCountsDialsInFlight(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 1}, clk.fn())
	p.SeedJitter(1)

	if _, v, _ := p.Acquire(1, true); v != Dial {
		t.Fatal("first dial should start")
	}
	// Dial still in flight holds the only fd.
	if _, v, r := p.Acquire(2, true); v != Shed || r != ShedConns {
		t.Fatalf("verdict %v reason %v, want Shed/conns", v, r)
	}
	if _, err := p.DialDone(1, "c"); err != nil {
		t.Fatal(err)
	}
}

func TestDialBackoffAndBreaker(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 4, BreakAfter: 3, ReopenAfterNS: int64(time.Second)}, clk.fn())
	p.SeedJitter(42)

	fail := func() {
		t.Helper()
		if _, v, r := p.Acquire(9, true); v != Dial {
			t.Fatalf("verdict %v (%v), want Dial", v, r)
		}
		p.DialFailed(9)
	}

	fail()
	// Immediately after a failure the target is in backoff.
	if _, v, r := p.Acquire(9, true); v != Shed || r != ShedBackoff {
		t.Fatalf("verdict %v reason %v, want Shed/backoff", v, r)
	}
	clk.advance(40 * time.Millisecond) // > backoffNS (25ms) +25% jitter
	fail()
	clk.advance(70 * time.Millisecond) // > 2*backoffNS +25% jitter
	fail()                             // third consecutive failure opens the breaker
	s := p.Stats()
	if s.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", s.BreakerOpens)
	}
	if p.BreakersOpen() != 1 {
		t.Fatalf("BreakersOpen = %d, want 1", p.BreakersOpen())
	}
	clk.advance(500 * time.Millisecond)
	if _, v, r := p.Acquire(9, true); v != Shed || r != ShedBreaker {
		t.Fatalf("half-way through open window: verdict %v reason %v", v, r)
	}

	// After the reopen window one half-open dial goes through; its
	// success closes the breaker.
	clk.advance(600 * time.Millisecond)
	if _, v, r := p.Acquire(9, true); v != Dial {
		t.Fatalf("half-open probe: verdict %v (%v), want Dial", v, r)
	}
	l, err := p.DialDone(9, "c")
	if err != nil {
		t.Fatal(err)
	}
	p.Release(l, nil)
	s = p.Stats()
	if s.BreakerCloses != 1 || p.BreakersOpen() != 0 {
		t.Fatalf("breaker not closed: %+v open=%d", s, p.BreakersOpen())
	}
}

func TestHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 4, BreakAfter: 1, ReopenAfterNS: int64(100 * time.Millisecond)}, clk.fn())
	p.SeedJitter(7)

	if _, v, _ := p.Acquire(3, true); v != Dial {
		t.Fatal("want Dial")
	}
	p.DialFailed(3) // opens (BreakAfter=1)
	clk.advance(150 * time.Millisecond)
	if _, v, _ := p.Acquire(3, true); v != Dial {
		t.Fatal("half-open dial should be allowed")
	}
	// While the half-open dial is out, further acquires shed on breaker.
	if _, v, r := p.Acquire(3, true); v != Shed || r != ShedDialing {
		t.Fatalf("verdict %v reason %v, want Shed/dialing", v, r)
	}
	p.DialFailed(3)
	if got := p.Stats().BreakerOpens; got != 2 {
		t.Fatalf("breaker opens = %d, want 2 (reopened)", got)
	}
	if _, v, r := p.Acquire(3, true); v != Shed || r != ShedBreaker {
		t.Fatalf("verdict %v reason %v, want Shed/breaker after reopen", v, r)
	}
}

// TestHalfOpenGateSurvivesShed: an acquire past an open breaker's
// window that is then shed by the target's backoff must not use up
// the half-open probe. The breaker here reopens after 10ms, before the
// 25ms backoff ends; once the backoff ends, the target must dial.
func TestHalfOpenGateSurvivesShed(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 4, BreakAfter: 1, ReopenAfterNS: int64(10 * time.Millisecond)}, clk.fn())
	p.SeedJitter(3)

	if _, v, _ := p.Acquire(5, true); v != Dial {
		t.Fatal("want Dial")
	}
	p.DialFailed(5) // opens (BreakAfter=1) and starts a 25ms ±25% backoff
	clk.advance(15 * time.Millisecond)
	if _, v, r := p.Acquire(5, true); v != Shed || r != ShedBackoff {
		t.Fatalf("reopen window over, backoff not: verdict %v reason %v, want Shed/backoff", v, r)
	}
	clk.advance(25 * time.Millisecond)
	if _, v, r := p.Acquire(5, true); v != Dial {
		t.Fatalf("backoff over: verdict %v (%v), want the half-open Dial", v, r)
	}
	if _, v, r := p.Acquire(5, true); v != Shed || r != ShedDialing {
		t.Fatalf("half-open dial out: verdict %v reason %v, want Shed/dialing", v, r)
	}
}

func TestIdleGC(t *testing.T) {
	clk := &fakeClock{}
	var closed int
	p := New[int, string](Config{MaxConns: 8, IdleAfterNS: int64(100 * time.Millisecond)}, clk.fn())
	p.SeedJitter(1)
	p.OnClose = func(int, string) { closed++ }

	l1 := dialAndHold(t, p, 1, false)
	p.Release(l1, nil)
	clk.advance(60 * time.Millisecond)
	l2 := dialAndHold(t, p, 2, true)
	p.Release(l2, nil)

	clk.advance(50 * time.Millisecond) // target 1 idle 110ms, target 2 idle 50ms
	p.GC()
	s := p.Stats()
	if s.IdleGCs != 1 || closed != 1 || s.Live != 1 {
		t.Fatalf("after GC: idleGCs=%d closed=%d live=%d, want 1/1/1", s.IdleGCs, closed, s.Live)
	}
	if p.Fence(l1) {
		t.Fatal("lease on GC'd conn passed fence")
	}
	clk.advance(100 * time.Millisecond)
	p.GC()
	if got := p.Stats().Live; got != 0 {
		t.Fatalf("live after full GC = %d, want 0", got)
	}
}

func TestCloseIdempotentAndDrains(t *testing.T) {
	clk := &fakeClock{}
	var closed int
	p := New[int, string](Config{MaxConns: 8}, clk.fn())
	p.SeedJitter(1)
	p.OnClose = func(int, string) { closed++ }

	l := dialAndHold(t, p, 1, true)
	p.Close()
	p.Close() // idempotent
	if closed != 1 {
		t.Fatalf("closed %d conns, want 1", closed)
	}
	if p.Stats().Live != 0 {
		t.Fatal("live conns survived Close")
	}
	// In-flight lease resolves as a stale release, never blocks.
	p.Release(l, nil)
	if got := p.Stats().StaleReleases; got != 1 {
		t.Fatalf("stale releases = %d, want 1", got)
	}
	// Acquire after close sheds; DialDone after close closes the conn.
	if _, v, _ := p.Acquire(2, true); v != Shed {
		t.Fatal("acquire after Close must shed")
	}
	if _, err := p.DialDone(3, "late"); err != ErrClosed {
		t.Fatalf("DialDone after Close: %v, want ErrClosed", err)
	}
	if closed != 2 {
		t.Fatalf("late-dial conn not closed (closed=%d)", closed)
	}
}

func TestDialConcurrencyCap(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 100}, clk.fn())
	p.SeedJitter(1)
	for k := 0; k < maxDialing; k++ {
		if _, v, _ := p.Acquire(k, true); v != Dial {
			t.Fatalf("dial %d blocked", k)
		}
	}
	if _, v, r := p.Acquire(maxDialing, true); v != Shed || r != ShedDialCap {
		t.Fatalf("verdict %v reason %v, want Shed/dial-cap", v, r)
	}
}

func TestJitterDeterminismUnderSeed(t *testing.T) {
	run := func() []int64 {
		clk := &fakeClock{}
		p := New[int, string](Config{MaxConns: 4}, clk.fn())
		p.SeedJitter(99)
		var deadlines []int64
		for i := 0; i < 5; i++ {
			if _, v, _ := p.Acquire(1, true); v != Dial {
				t.Fatal("want Dial")
			}
			p.DialFailed(1)
			p.mu.Lock()
			deadlines = append(deadlines, p.entries[1].nextDialAt)
			p.mu.Unlock()
			clk.advance(time.Second)
		}
		return deadlines
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestDialAbortedChargesNoBreaker covers the local-resource failure
// path: an aborted dial (process fd limit, CM queue full) frees the
// slot and counts an error plus an fd shed, but must NOT charge the
// target's breaker or backoff — the target is dialable again the
// moment the local resource recovers.
func TestDialAbortedChargesNoBreaker(t *testing.T) {
	clk := &fakeClock{}
	p := New[int, string](Config{MaxConns: 4, BreakAfter: 1}, clk.fn())
	p.SeedJitter(1)

	for i := 0; i < 3; i++ {
		if _, v, r := p.Acquire(7, true); v != Dial {
			t.Fatalf("round %d: verdict %v (shed %v), want Dial", i, v, r)
		}
		p.DialAborted(7)
	}
	s := p.Stats()
	if s.DialErrors != 3 || s.Sheds[ShedFDs] != 3 {
		t.Fatalf("stats after aborts: errors %d fd-sheds %d, want 3/3", s.DialErrors, s.Sheds[ShedFDs])
	}
	if s.BreakerOpens != 0 {
		t.Fatalf("aborted dials opened a breaker (BreakAfter=1 would trip on any charge)")
	}
	if s.Dialing != 0 {
		t.Fatalf("aborted dial left %d slots in flight", s.Dialing)
	}

	// Still immediately dialable: no backoff window was started.
	l := dialAndHold(t, p, 7, true)
	p.Release(l, nil)

	// Contrast: one genuine DialFailed with BreakAfter=1 trips the breaker.
	p2 := New[int, string](Config{MaxConns: 4, BreakAfter: 1}, clk.fn())
	p2.SeedJitter(1)
	if _, v, _ := p2.Acquire(7, true); v != Dial {
		t.Fatal("contrast acquire: want Dial")
	}
	p2.DialFailed(7)
	if p2.Stats().BreakerOpens != 1 {
		t.Fatal("genuine dial failure with BreakAfter=1 did not open the breaker")
	}
}
