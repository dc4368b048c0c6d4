package tcpverbs

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rdmamon/internal/wire"
)

// The write contract, as a later verb on the same connection and the
// region's sink see it: writes land in the order they were posted, and
// a read or compare-and-swap issued after them observes them (RC
// ordering on one queue pair).

// landingSlot is a writable region that keeps every landed write.
type landingSlot struct {
	mu     sync.Mutex
	cur    []byte
	landed [][]byte
}

func newLandingSlot(a *Agent, size int) (*landingSlot, uint32) {
	s := &landingSlot{cur: make([]byte, size)}
	key := a.RegisterWritableMR(func() []byte {
		s.mu.Lock()
		defer s.mu.Unlock()
		return append([]byte(nil), s.cur...)
	}, size, func(b []byte) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cur = append(s.cur[:0], b...)
		s.landed = append(s.landed, b)
	}).Key()
	return s, key
}

func (s *landingSlot) history() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.landed...)
}

// payload is the i-th distinct write of a test.
func payload(i, size int) []byte {
	p := bytes.Repeat([]byte{byte(i)}, size)
	binary.BigEndian.PutUint32(p, uint32(i))
	return p
}

func TestWriteContract(t *testing.T) {
	t.Run("read sees the last write", func(t *testing.T) {
		a := newAgent(t)
		slot, key := newLandingSlot(a, 64)
		c := dial(t, a)
		const n = 10
		for i := 1; i <= n; i++ {
			if err := c.RDMAWrite(key, payload(i, 64)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.RDMARead(key, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(n, 64)) {
			t.Fatalf("read after %d writes returned write %d", n, binary.BigEndian.Uint32(got))
		}
		if h := slot.history(); len(h) != n {
			t.Fatalf("sink saw %d writes, want %d", len(h), n)
		}
	})

	t.Run("writes then a fenced CAS", func(t *testing.T) {
		a := newAgent(t)
		slot, key := newLandingSlot(a, 64)
		word, wkey := newLandingSlot(a, 8)
		c := dial(t, a)
		for i := 1; i <= 4; i++ {
			if err := c.RDMAWrite(key, payload(i, 64)); err != nil {
				t.Fatal(err)
			}
		}
		bid := wire.PackClaimWord(1, 1, 0)
		if prev, err := c.CompareSwapFenced(wkey, 0, bid); err != nil || prev != 0 {
			t.Fatalf("CAS behind the writes: prev %#x, %v", prev, err)
		}
		h := slot.history()
		if len(h) != 4 || !bytes.Equal(h[3], payload(4, 64)) {
			t.Fatalf("slot history after the CAS: %d writes", len(h))
		}
		w := word.history()
		if len(w) != 1 || binary.LittleEndian.Uint64(w[0]) != bid {
			t.Fatalf("word history after the CAS: %x", w)
		}
	})

	t.Run("sink sees the posted order", func(t *testing.T) {
		a := newAgent(t)
		slot, key := newLandingSlot(a, 32)
		other, okey := newLandingSlot(a, 32)
		c := dial(t, a)
		const n = 100
		var want, wantOther [][]byte
		for i := 0; i < n; i++ {
			k, p := key, payload(i, 32)
			if i%3 == 0 {
				k, wantOther = okey, append(wantOther, p)
			} else {
				want = append(want, p)
			}
			if err := c.RDMAWrite(k, p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RDMARead(key, 32); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name      string
			got, want [][]byte
		}{{"slot", slot.history(), want}, {"other", other.history(), wantOther}} {
			if len(tc.got) != len(tc.want) {
				t.Fatalf("%s: sink saw %d writes, want %d", tc.name, len(tc.got), len(tc.want))
			}
			for i := range tc.got {
				if !bytes.Equal(tc.got[i], tc.want[i]) {
					t.Fatalf("%s: landing %d is write %d, want %d", tc.name, i,
						binary.BigEndian.Uint32(tc.got[i]), binary.BigEndian.Uint32(tc.want[i]))
				}
			}
		}
	})

	t.Run("live-mixed iteration shape", func(t *testing.T) {
		// One iteration as the bench's live-mixed client runs it: a
		// 32-read batch, four writes of a push record, one fenced CAS
		// renewing the claim word. The end state is what its verify
		// checks: the slot holds the last record, the word the last bid.
		a := newAgent(t)
		ring := bytes.Repeat([]byte{5}, 2048)
		reqs := make([]BatchRead, 32)
		for i := range reqs {
			reqs[i] = BatchRead{RKey: a.RegisterMR(StaticSource(ring), len(ring)).Key(), Length: len(ring)}
		}
		slot, key := newLandingSlot(a, wire.PushRecordSize)
		word, wkey := newLandingSlot(a, wire.ClaimWordSize)
		c := dial(t, a)
		var res []BatchResult
		var last []byte
		var installed uint64
		const iters = 1000
		for it := 0; it < iters; it++ {
			var err error
			if res, err = c.RDMAReadBatchInto(reqs, res); err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Err != nil || !bytes.Equal(r.Data, ring) {
					t.Fatalf("iteration %d ring %d: %d bytes, %v", it, i, len(r.Data), r.Err)
				}
			}
			for w := 0; w < 4; w++ {
				last = payload(4*it+w, wire.PushRecordSize)
				if err := c.RDMAWrite(key, last); err != nil {
					t.Fatal(err)
				}
			}
			next := wire.PackClaimWord(1, 1, uint32(it+1))
			prev, err := c.CompareSwapFenced(wkey, installed, next)
			if err != nil || prev != installed {
				t.Fatalf("iteration %d: CAS returned %#x, %v; want %#x", it, prev, err, installed)
			}
			installed = next
		}
		got, err := c.RDMARead(key, wire.PushRecordSize)
		if err != nil || !bytes.Equal(got, last) {
			t.Fatalf("slot does not hold the last record written (%v)", err)
		}
		w, err := c.RDMARead(wkey, wire.ClaimWordSize)
		if err != nil || binary.LittleEndian.Uint64(w) != installed {
			t.Fatalf("word %x, want %#x (%v)", w, installed, err)
		}
		if n := len(slot.history()); n != 4*iters {
			t.Fatalf("sink saw %d writes, want %d", n, 4*iters)
		}
		if n := len(word.history()); n != iters {
			t.Fatalf("word took %d swaps, want %d", n, iters)
		}
	})
}

// TestPostedWriteErrorsComeBackFromSync: a posted write's remote error
// never fails the read or CAS that reaps it, whose results stay right;
// the first one is held and comes back from Sync, exactly once.
func TestPostedWriteErrorsComeBackFromSync(t *testing.T) {
	a := newAgent(t)
	ro := a.RegisterMR(StaticSource(make([]byte, 8)), 8).Key()
	_, key := newLandingSlot(a, 8)
	_, wkey := newLandingSlot(a, 8)
	c := dial(t, a)
	cases := []struct {
		name string
		rkey uint32
		data []byte
		want error
	}{
		{"bad key", 999, []byte{1}, ErrBadKey},
		{"permission", ro, []byte{1}, ErrPermission},
		{"length", key, make([]byte, 9), ErrLength},
	}
	for i, tc := range cases {
		good := payload(i+1, 8)
		for _, w := range []struct {
			rkey uint32
			data []byte
		}{{tc.rkey, tc.data}, {key, good}, {999, nil}} { // the later failure does not displace the first
			if err := c.RDMAWrite(w.rkey, w.data); err != nil {
				t.Fatalf("%s: posting returned %v", tc.name, err)
			}
		}
		if got, err := c.RDMARead(key, 8); err != nil || !bytes.Equal(got, good) {
			t.Fatalf("%s: the read that reaped the writes returned %x, %v", tc.name, got, err)
		}
		if err := c.RDMAWrite(tc.rkey, tc.data); err != nil {
			t.Fatal(err)
		}
		if prev, err := c.CompareSwap(wkey, uint64(i), uint64(i+1)); err != nil || prev != uint64(i) {
			t.Fatalf("%s: the CAS that reaped a failed write returned %d, %v", tc.name, prev, err)
		}
		if err := c.Sync(); err != tc.want {
			t.Fatalf("%s: Sync returned %v, want %v", tc.name, err, tc.want)
		}
		if err := c.Sync(); err != nil {
			t.Fatalf("%s: the held error came back twice (%v)", tc.name, err)
		}
	}
}

// TestPostedBacklogCap: a write that would take the backlog past
// maxPosted writes or bufCap bytes rings the backlog first, and a frame
// larger than bufCap still goes through — without pinning its size on
// the connection.
func TestPostedBacklogCap(t *testing.T) {
	a := bareAgent()
	slot, key := newLandingSlot(a, 3*bufCap)
	c, ctap, _ := tappedConn(t, a)
	ringOf := func(n, size int) {
		t.Helper()
		if cw := ctap.writes(); len(cw) != 1 || cw[0] != n*(9+size) {
			t.Fatalf("request writes %v, want one ring of %d writes of %d bytes", cw, n, size)
		}
	}
	post := func(n, size int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.RDMAWrite(key, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(maxPosted, 8)
	if cw := ctap.writes(); len(cw) != 0 {
		t.Fatalf("a backlog of %d writes rang early: %v", maxPosted, cw)
	}
	post(1, 8)
	ringOf(maxPosted, 8)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	ringOf(1, 8)

	quarter := bufCap / 4 // three frames fit under bufCap, four do not
	post(3, quarter)
	if cw := ctap.writes(); len(cw) != 0 {
		t.Fatalf("a backlog under bufCap rang: %v", cw)
	}
	post(1, quarter)
	ringOf(3, quarter)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	ringOf(1, quarter)

	huge := payload(7, 3*bufCap)
	if err := c.RDMAWrite(key, huge); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	ringOf(1, len(huge))
	if h := slot.history(); len(h) != maxPosted+1+4+1 || !bytes.Equal(h[len(h)-1], huge) {
		t.Fatalf("%d landings, the last one not the over-cap write", len(h))
	}
	if cap(c.bell) > 2*bufCap {
		t.Fatalf("the over-cap frame pinned a %d-byte doorbell", cap(c.bell))
	}
}

// TestPostedWriteSurvivesAgentRestart: a write posted before the agent
// restarts on the same address is resent on the redial and lands.
func TestPostedWriteSurvivesAgentRestart(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	_, key := newLandingSlot(a, 8)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 5, Backoff: 5 * time.Millisecond}
	if err := c.RDMAWrite(key, payload(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.RDMAWrite(key, payload(2, 8)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a2, err := Listen(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer a2.Close()
	slot2, key2 := newLandingSlot(a2, 8)
	if key2 != key {
		t.Fatalf("the restarted agent keyed the slot %d, want %d", key2, key)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync after the restart: %v", err)
	}
	if h := slot2.history(); len(h) != 1 || !bytes.Equal(h[0], payload(2, 8)) {
		t.Fatalf("the restarted agent saw %d writes, want the posted one", len(h))
	}
	if c.Redials == 0 {
		t.Fatal("expected a redial")
	}
}

// TestCloseDropsUnrungBacklog: Close with writes posted returns at once
// and sends none of them, as a destroyed QP drops outstanding WRs.
func TestCloseDropsUnrungBacklog(t *testing.T) {
	a := newAgent(t)
	slot, key := newLandingSlot(a, 8)
	c := dial(t, a)
	if _, err := c.RDMARead(key, 8); err != nil { // the agent is serving the connection
		t.Fatal(err)
	}
	if err := c.RDMAWrite(key, payload(1, 8)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := c.RDMAWrite(key, payload(2, 8)); err != ErrClosed {
		t.Fatalf("RDMAWrite after Close: %v, want ErrClosed", err)
	}
	a.Close() // waits for the serve loop, which has read all it ever will
	if n := len(slot.history()); n != 0 {
		t.Fatalf("%d writes of a closed connection's backlog landed", n)
	}
}

// cutProxy serves a through a proxy that cuts the i-th initiator
// connection after budgets[i] bytes from the initiator (later ones run
// uncut). It forwards that many, hangs up on both sides and waits for
// a's serve loop to return before it accepts the next connection, so
// nothing of a cut stream lands after a byte of the redialed one. stop
// closes the listener and waits for the proxy, which finishes its
// current connection when the initiator hangs up.
func cutProxy(t *testing.T, a *Agent, budgets []int) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			budget := -1
			if i < len(budgets) {
				budget = budgets[i]
			}
			proxyOne(a, client, budget)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

// proxyOne relays one initiator connection to a's serve loop over a
// net.Pipe, cutting it after budget bytes from the initiator (never
// when budget < 0), and returns once both sides are down.
func proxyOne(a *Agent, client net.Conn, budget int) {
	front, back := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer back.Close()
		a.serve(back)
	}()
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		io.Copy(client, front)
	}()
	buf := make([]byte, 4096)
	for budget != 0 {
		n, err := client.Read(buf)
		if budget > 0 {
			n = min(n, budget)
			budget -= n
		}
		if _, werr := front.Write(buf[:n]); werr != nil || err != nil {
			break
		}
	}
	front.Close() // the serve loop applies every whole frame it holds, then fails
	<-served
	client.Close()
	<-relayed
}

// FuzzPostedWrites drives one connection through a fuzzer-chosen
// sequence of writes, reads, fenced CASes and Syncs while a proxy cuts
// the stream at fuzzer-chosen byte counts, each cut forcing a redial
// in the middle of some ring. A model of the regions checks that every
// read sees the model's last write, that no write lands before every
// write posted ahead of it has, that the regions end as the model
// does, and that each Sync returns the model's first failure since the
// previous one.
func FuzzPostedWrites(f *testing.F) {
	f.Add([]byte{0, 4, 1, 3}, []byte{})
	f.Add([]byte{0, 0, 4, 8, 2, 12, 1, 3, 1}, []byte{20, 5})
	f.Add(bytes.Repeat([]byte{0, 4, 8}, 30), []byte{0, 90, 200, 13})
	f.Add([]byte{12, 28, 44, 0, 3, 6, 3}, []byte{2})
	f.Add(append(bytes.Repeat([]byte{0}, 70), 1), []byte{255, 255})

	f.Fuzz(func(t *testing.T, steps, cuts []byte) {
		const size = 16
		steps, cuts = steps[:min(len(steps), 256)], cuts[:min(len(cuts), 4)]
		a := bareAgent()
		var mu sync.Mutex
		var landed []uint64 // write numbers, in landing order
		regions := make([][]byte, 3)
		for r := range regions { // keys 1, 2, 3
			regions[r] = make([]byte, size)
			a.RegisterWritableMR(func() []byte {
				mu.Lock()
				defer mu.Unlock()
				return append([]byte(nil), regions[r]...)
			}, size, func(b []byte) {
				mu.Lock()
				defer mu.Unlock()
				copy(regions[r], b)
				if v := binary.LittleEndian.Uint64(b); v>>56 == 0xA0 { // a write, not a CAS
					landed = append(landed, v&0xFFFFFFFF)
				}
			})
		}
		ro := a.RegisterMR(StaticSource(make([]byte, size)), size).Key()
		budgets := make([]int, len(cuts))
		for i, b := range cuts {
			budgets[i] = 3 * int(b)
		}
		addr, stop := cutProxy(t, a, budgets)
		defer stop()
		c, err := DialTimeout(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Retry = RetryPolicy{Attempts: len(cuts) + 2, Backoff: time.Microsecond, MaxBackoff: time.Microsecond}

		model := [3][]byte{make([]byte, size), make([]byte, size), make([]byte, size)}
		var writes uint64
		var held error
		for i, s := range steps {
			r := int(s>>2) % 4 // region 3 stands for a failing write
			switch s & 3 {
			case 0:
				rkey, data := uint32(r+1), make([]byte, size)
				if r < 3 {
					writes++
					binary.LittleEndian.PutUint64(data, 0xA0<<56|writes)
					data[8] = byte(i)
					model[r] = data
				} else {
					var want error
					switch s >> 4 % 3 {
					case 0:
						rkey, want = 99, ErrBadKey
					case 1:
						rkey, want = ro, ErrPermission
					default:
						rkey, data, want = 1, make([]byte, size+1), ErrLength
					}
					if held == nil {
						held = want
					}
				}
				if err := c.RDMAWrite(rkey, data); err != nil {
					t.Fatalf("step %d: posting a write: %v", i, err)
				}
			case 1:
				r %= 3
				if got, err := c.RDMARead(uint32(r+1), size); err != nil || !bytes.Equal(got, model[r]) {
					t.Fatalf("step %d: read of region %d returned %x, %v; want %x", i, r, got, err, model[r])
				}
			case 2:
				r %= 3
				compare, swap := binary.LittleEndian.Uint64(model[r]), 0xC0<<56|uint64(i) // a bid unique in the history
				if prev, err := c.CompareSwapFenced(uint32(r+1), compare, swap); err != nil || prev != compare {
					t.Fatalf("step %d: CAS on region %d returned %#x, %v; want %#x", i, r, prev, err, compare)
				}
				binary.LittleEndian.PutUint64(model[r], swap)
			case 3:
				if err := c.Sync(); err != held {
					t.Fatalf("step %d: Sync returned %v, want %v", i, err, held)
				}
				held = nil
			}
		}
		if err := c.Sync(); err != held {
			t.Fatalf("final Sync returned %v, want %v", err, held)
		}
		c.Close()
		stop()
		mu.Lock()
		defer mu.Unlock()
		var high uint64
		for j, w := range landed {
			if w > high+1 {
				t.Fatalf("landing %d is write %d, before write %d ever landed", j, w, high+1)
			}
			high = max(high, w)
		}
		if high != writes {
			t.Fatalf("%d of %d writes landed", high, writes)
		}
		for r := range regions {
			if !bytes.Equal(regions[r], model[r]) {
				t.Fatalf("region %d ends %x, the model %x", r, regions[r], model[r])
			}
		}
	})
}
