package tcpverbs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

func newAgent(t testing.TB) *Agent {
	t.Helper()
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func dial(t testing.TB, a *Agent) *Conn {
	t.Helper()
	c, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRDMAReadRoundTrip(t *testing.T) {
	a := newAgent(t)
	payload := []byte("kernel-stats-here")
	mr := a.RegisterMR(StaticSource(payload), len(payload))
	c := dial(t, a)
	got, err := c.RDMARead(mr.Key(), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	reads, _, _ := a.Stats()
	if reads != 1 {
		t.Fatalf("served reads = %d", reads)
	}
}

// StaticSource mirrors simnet's helper for tests.
func StaticSource(b []byte) Source { return func() []byte { return b } }

func TestRDMAReadSourceCalledPerRead(t *testing.T) {
	a := newAgent(t)
	var n atomic.Int32
	mr := a.RegisterMR(func() []byte {
		n.Add(1)
		return []byte{byte(n.Load())}
	}, 1)
	c := dial(t, a)
	for i := 1; i <= 3; i++ {
		got, err := c.RDMARead(mr.Key(), 1)
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("read %d: %v %v", i, got, err)
		}
	}
}

func TestRDMAReadBadKey(t *testing.T) {
	a := newAgent(t)
	c := dial(t, a)
	if _, err := c.RDMARead(999, 8); err != ErrBadKey {
		t.Fatalf("err = %v, want ErrBadKey", err)
	}
}

func TestRDMAReadBeyondBounds(t *testing.T) {
	a := newAgent(t)
	mr := a.RegisterMR(StaticSource(make([]byte, 4)), 4)
	c := dial(t, a)
	if _, err := c.RDMARead(mr.Key(), 100); err != ErrLength {
		t.Fatalf("err = %v, want ErrLength", err)
	}
}

func TestRDMAWrite(t *testing.T) {
	a := newAgent(t)
	var got []byte
	var mu sync.Mutex
	mr := a.RegisterWritableMR(StaticSource(make([]byte, 16)), 16, func(b []byte) {
		mu.Lock()
		got = b
		mu.Unlock()
	})
	c := dial(t, a)
	if err := c.RDMAWrite(mr.Key(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("sink got %v", got)
	}
}

func TestRDMAWriteReadOnlyDenied(t *testing.T) {
	a := newAgent(t)
	mr := a.RegisterMR(StaticSource(make([]byte, 8)), 8)
	c := dial(t, a)
	if err := c.RDMAWrite(mr.Key(), []byte{1}); err != ErrPermission {
		t.Fatalf("err = %v, want ErrPermission", err)
	}
}

func TestDeregister(t *testing.T) {
	a := newAgent(t)
	mr := a.RegisterMR(StaticSource(make([]byte, 8)), 8)
	a.Deregister(mr)
	c := dial(t, a)
	if _, err := c.RDMARead(mr.Key(), 8); err != ErrBadKey {
		t.Fatalf("err = %v, want ErrBadKey", err)
	}
}

func TestCallHandler(t *testing.T) {
	a := newAgent(t)
	a.HandleCall("echo", func(p []byte) []byte {
		return append([]byte("re:"), p...)
	})
	c := dial(t, a)
	got, err := c.Call("echo", []byte("hi"))
	if err != nil || string(got) != "re:hi" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if _, err := c.Call("nope", nil); err != ErrNoHandler {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	a := newAgent(t)
	var counter atomic.Uint64
	mr := a.RegisterMR(func() []byte {
		v := counter.Add(1)
		return []byte{byte(v), byte(v >> 8)}
	}, 2)
	const clients = 8
	const readsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(a.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < readsPer; j++ {
				if _, err := c.RDMARead(mr.Key(), 2); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if counter.Load() != clients*readsPer {
		t.Fatalf("source called %d times, want %d", counter.Load(), clients*readsPer)
	}
}

func TestConcurrentOpsOnOneConn(t *testing.T) {
	a := newAgent(t)
	mr := a.RegisterMR(StaticSource([]byte{42}), 1)
	c := dial(t, a)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, err := c.RDMARead(mr.Key(), 1)
				if err != nil || got[0] != 42 {
					t.Errorf("read: %v %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCloseUnblocksServer(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Further ops on the conn should fail, not hang.
	if _, err := c.RDMARead(1, 1); err == nil {
		t.Fatal("read after agent close should fail")
	}
	c.Close()
}

func TestPortNameTooLong(t *testing.T) {
	a := newAgent(t)
	c := dial(t, a)
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := c.Call(string(long), nil); err == nil {
		t.Fatal("overlong port should error")
	}
}

func TestCompareSwapAppliesAndFences(t *testing.T) {
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

	prev, err := c.CompareSwap(mr.Key(), 0, 0xdead)
	if err != nil || prev != 0 {
		t.Fatalf("winning CAS: prev=%#x err=%v", prev, err)
	}
	// A stale compare must lose and report the current value.
	prev, err = c.CompareSwap(mr.Key(), 0, 0xbeef)
	if err != nil || prev != 0xdead {
		t.Fatalf("losing CAS: prev=%#x err=%v", prev, err)
	}
	// A fresh compare wins again.
	if prev, err = c.CompareSwap(mr.Key(), 0xdead, 0xbeef); err != nil || prev != 0xdead {
		t.Fatalf("second CAS: prev=%#x err=%v", prev, err)
	}
	if got := a.Atomics(); got != 3 {
		t.Fatalf("served atomics = %d, want 3", got)
	}
}

func TestCompareSwapErrors(t *testing.T) {
	a := newAgent(t)
	ro := a.RegisterMR(StaticSource(make([]byte, 8)), 8)
	small := a.RegisterWritableMR(StaticSource(make([]byte, 4)), 4, func([]byte) {})
	c := dial(t, a)
	if _, err := c.CompareSwap(99999, 0, 1); err != ErrBadKey {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := c.CompareSwap(ro.Key(), 0, 1); err != ErrPermission {
		t.Fatalf("read-only region: %v", err)
	}
	if _, err := c.CompareSwap(small.Key(), 0, 1); err != ErrLength {
		t.Fatalf("short region: %v", err)
	}
}

// TestCompareSwapSerializes races many initiators over distinct
// connections: every round exactly one CAS may win, so the final value
// reflects a linear history of wins.
func TestCompareSwapSerializes(t *testing.T) {
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

	const racers = 8
	var wins atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(a.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// Everyone bids from the same observed value; only one can
			// install its ID.
			if prev, err := c.CompareSwap(mr.Key(), 0, uint64(i)+1); err == nil && prev == 0 {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d racers won the same CAS, want exactly 1", wins.Load())
	}
}
