package tcpverbs

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdmamon/internal/wire"
)

// dropProxy sits between an initiator and an agent and swallows a
// budgeted number of reply frames, closing both sides when it does.
// The request still reaches the agent — the atomic is applied — but
// the initiator sees a dead connection mid-operation, the exact
// ambiguity the redial-and-replay path has to resolve.
type dropProxy struct {
	ln     net.Listener
	target string
	drops  atomic.Int32
}

func newDropProxy(t *testing.T, target string, dropReplies int) *dropProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &dropProxy{ln: ln, target: target}
	p.drops.Store(int32(dropReplies))
	t.Cleanup(func() { ln.Close() })
	go p.acceptLoop()
	return p
}

func (p *dropProxy) Addr() string { return p.ln.Addr().String() }

func (p *dropProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(c)
	}
}

func (p *dropProxy) serve(client net.Conn) {
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	var once sync.Once
	closeBoth := func() { once.Do(func() { client.Close(); upstream.Close() }) }
	go func() {
		defer closeBoth()
		io.Copy(upstream, client)
	}()
	go func() {
		defer closeBoth()
		var hdr [4]byte
		for {
			if _, err := io.ReadFull(upstream, hdr[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(upstream, body); err != nil {
				return
			}
			if p.drops.Add(-1) >= 0 {
				// Swallow the reply and kill the link: the agent has
				// already applied and answered, the initiator never
				// learns it.
				return
			}
			if _, err := client.Write(hdr[:]); err != nil {
				return
			}
			if _, err := client.Write(body); err != nil {
				return
			}
		}
	}()
}

// TestCompareSwapFencedRedialIdempotent covers the mid-CAS redial
// hazard: the claim CAS is applied by the agent, the reply is lost,
// and the connection replays the frame after redialing. The replay
// loses (the word already holds the bid) and observes prev == swap;
// CompareSwapFenced must recognize its own applied bid and report the
// original win instead of a spurious loss — no double-win, no
// double-loss.
func TestCompareSwapFencedRedialIdempotent(t *testing.T) {
	a := newAgent(t)
	word := make([]byte, 8)
	var mu sync.Mutex
	mr := a.RegisterWritableMR(func() []byte {
		mu.Lock()
		defer mu.Unlock()
		cp := make([]byte, len(word))
		copy(cp, word)
		return cp
	}, len(word), func(b []byte) {
		mu.Lock()
		defer mu.Unlock()
		copy(word, b)
	})

	proxy := newDropProxy(t, a.Addr(), 1)
	c, err := DialTimeout(proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Retry = RetryPolicy{Attempts: 4, Backoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	c.SeedJitter(1)

	bid := wire.PackClaimWord(1, 1, 0)
	prev, err := c.CompareSwapFenced(mr.Key(), 0, bid)
	if err != nil {
		t.Fatalf("fenced CAS through lossy link: %v", err)
	}
	if prev != 0 {
		t.Fatalf("prev = %#x, want 0 (win must survive the replay)", prev)
	}
	if c.Redials == 0 {
		t.Fatal("expected at least one redial (the proxy dropped a reply)")
	}
	mu.Lock()
	got := binary.LittleEndian.Uint64(word)
	mu.Unlock()
	if got != bid {
		t.Fatalf("word = %#x, want %#x (applied exactly once)", got, bid)
	}
	// Both the original attempt and the replay reached the agent; the
	// replay lost benignly rather than re-applying.
	if n := servedAtomics(a); n != 2 {
		t.Fatalf("served atomics = %d, want 2 (attempt + replay)", n)
	}
}

// TestCompareSwapFencedEpochRegression pins the fencing rule: a lost
// CAS whose observed word carries a newer epoch (serial-arithmetic
// compare, so wrap-around counts as newer) is a deposition and
// surfaces as ErrFenced; a lost CAS against an older epoch is a plain
// race and reports the observed word without error.
func TestCompareSwapFencedEpochRegression(t *testing.T) {
	a := newAgent(t)
	word := make([]byte, 8)
	var mu sync.Mutex
	mr := a.RegisterWritableMR(func() []byte {
		mu.Lock()
		defer mu.Unlock()
		cp := make([]byte, len(word))
		copy(cp, word)
		return cp
	}, len(word), func(b []byte) {
		mu.Lock()
		defer mu.Unlock()
		copy(word, b)
	})
	c := dial(t, a)

	held := wire.PackClaimWord(1, 1, 0)
	if prev, err := c.CompareSwapFenced(mr.Key(), 0, held); err != nil || prev != 0 {
		t.Fatalf("initial claim: prev=%#x err=%v", prev, err)
	}
	// A rival seizes the shard at a newer epoch behind the holder's
	// back (e.g. after the holder was presumed dead).
	seized := wire.PackClaimWord(2, 3, 0)
	if prev, err := c.CompareSwap(mr.Key(), held, seized); err != nil || prev != held {
		t.Fatalf("rival takeover: prev=%#x err=%v", prev, err)
	}
	// The original holder renews against its stale view: the observed
	// epoch (3) is newer than its bid's (1) -> fenced, not a retry.
	renew := wire.PackClaimWord(1, 1, 1)
	if _, err := c.CompareSwapFenced(mr.Key(), held, renew); err != ErrFenced {
		t.Fatalf("stale renew: err = %v, want ErrFenced", err)
	}
	// A bid carrying a NEWER epoch than the observed word merely lost a
	// race (or raced a release); that is retryable, not fenced.
	future := wire.PackClaimWord(3, 4, 0)
	if prev, err := c.CompareSwapFenced(mr.Key(), wire.PackClaimWord(9, 3, 9), future); err != nil || prev != seized {
		t.Fatalf("racing bid: prev=%#x err=%v, want prev=%#x nil", prev, err, seized)
	}
	// Serial arithmetic: an observed epoch that wrapped past the bid's
	// still counts as newer.
	mu.Lock()
	binary.LittleEndian.PutUint64(word, wire.PackClaimWord(2, 2, 0))
	mu.Unlock()
	wrapped := wire.PackClaimWord(1, 0xffff, 0)
	if _, err := c.CompareSwapFenced(mr.Key(), wire.PackClaimWord(1, 0xfffe, 5), wrapped); err != ErrFenced {
		t.Fatalf("wrap-around regression: err = %v, want ErrFenced", err)
	}
}
