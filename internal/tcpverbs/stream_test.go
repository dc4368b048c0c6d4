package tcpverbs

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// The buffered framing, pinned from inside the package: how many
// socket writes a doorbell costs at either end, the flush-before-block
// rule, the output cap, what a redial does to buffered bytes, who may
// keep a frame's memory, and that none of it moved a byte on the wire.

// tap wraps one end of a connection and records its socket writes.
type tap struct {
	net.Conn
	mu    sync.Mutex
	sizes []int
}

func (t *tap) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.sizes = append(t.sizes, len(p))
	t.mu.Unlock()
	return t.Conn.Write(p)
}

// writes returns the sizes of the writes made since the last call.
func (t *tap) writes() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sizes
	t.sizes = nil
	return s
}

// bareAgent is an Agent with no listener: tests hand its serve loop
// the connections themselves.
func bareAgent() *Agent {
	return &Agent{
		mrs:      make(map[uint32]*MR),
		handlers: make(map[string]func([]byte) []byte),
		conns:    make(map[net.Conn]struct{}),
	}
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// serveOn runs a.serve on conn until the test ends, and waits for it.
func serveOn(t testing.TB, a *Agent, conn net.Conn) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.serve(conn)
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
}

// tappedConn is an initiator on a tapped loopback connection that a's
// serve loop answers through a second tap.
func tappedConn(t *testing.T, a *Agent) (c *Conn, ctap, stap *tap) {
	t.Helper()
	cl, sv := loopbackPair(t)
	ctap, stap = &tap{Conn: cl}, &tap{Conn: sv}
	serveOn(t, a, stap)
	c = connOn(ctap)
	t.Cleanup(func() { c.Close() })
	return c, ctap, stap
}

// connOn is an initiator on an already-established stream: no address
// to redial, so one attempt per operation.
func connOn(nc net.Conn) *Conn {
	return &Conn{c: nc, done: make(chan struct{}), opTmo: 5 * time.Second,
		rng: rand.New(rand.NewSource(1)), Retry: RetryPolicy{Attempts: 1}}
}

// Byte-level builders for the wire-format tests.
func be32(v uint32) []byte       { return binary.BigEndian.AppendUint32(nil, v) }
func be64(v uint64) []byte       { return binary.BigEndian.AppendUint64(nil, v) }
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestDoorbellIsOneWrite(t *testing.T) {
	a := bareAgent()
	const k = 32
	reqs := make([]BatchRead, k)
	for i := range reqs {
		mr := a.RegisterMR(StaticSource([]byte{byte(i), byte(i), byte(i)}), 3)
		reqs[i] = BatchRead{RKey: mr.Key(), Length: 3}
	}
	c, ctap, stap := tappedConn(t, a)
	var res []BatchResult
	for round := 0; round < 3; round++ {
		var err error
		if res, err = c.RDMAReadBatchInto(reqs, res); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil || !bytes.Equal(r.Data, []byte{byte(i), byte(i), byte(i)}) {
				t.Fatalf("round %d slot %d: %+v", round, i, r)
			}
		}
		cw, sw := ctap.writes(), stap.writes()
		if len(cw) != 1 {
			t.Fatalf("round %d: initiator posted the doorbell in %d writes %v, want 1", round, len(cw), cw)
		}
		if len(sw) > 2 {
			t.Fatalf("round %d: agent answered %d reads in %d writes %v, want <= 2", round, k, len(sw), sw)
		}
	}
	// Single verbs: one write out, one write back, header included.
	wr := a.RegisterWritableMR(StaticSource(make([]byte, 8)), 8, func([]byte) {})
	a.HandleCall("echo", func(p []byte) []byte { return p })
	ops := map[string]func() error{
		"read":  func() error { _, err := c.RDMARead(reqs[0].RKey, 3); return err },
		"write": func() error { return c.RDMAWrite(wr.Key(), []byte{1, 2, 3}) },
		"cas":   func() error { _, err := c.CompareSwap(wr.Key(), 0, 1); return err },
		"call":  func() error { _, err := c.Call("echo", []byte("hi")); return err },
	}
	for name, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cw, sw := ctap.writes(), stap.writes(); len(cw) != 1 || len(sw) != 1 {
			t.Fatalf("%s: %d request writes %v and %d reply writes %v, want 1 and 1", name, len(cw), cw, len(sw), sw)
		}
	}
}

// pipeRequest builds an opReadPipe request frame.
func pipeRequest(seq, rkey, maxLen uint32) []byte {
	body := make([]byte, 13)
	body[0] = opReadPipe
	binary.BigEndian.PutUint32(body[1:], seq)
	binary.BigEndian.PutUint32(body[5:], rkey)
	binary.BigEndian.PutUint32(body[9:], maxLen)
	return frame(body)
}

// TestFlushBeforeBlock: the agent may hold replies back only while
// more requests are already buffered. A client that waits for each
// reply before posting the next request must never stall.
func TestFlushBeforeBlock(t *testing.T) {
	a := bareAgent()
	mr := a.RegisterMR(StaticSource([]byte{7, 7}), 2)
	cl, sv := loopbackPair(t)
	defer cl.Close()
	serveOn(t, a, sv)
	var fr frameReader
	for seq := uint32(1); seq <= 100; seq++ {
		if _, err := cl.Write(pipeRequest(seq, mr.Key(), 2)); err != nil {
			t.Fatal(err)
		}
		cl.SetReadDeadline(time.Now().Add(2 * time.Second))
		body, err := fr.next(cl)
		if err != nil {
			t.Fatalf("seq %d: reply withheld: %v", seq, err)
		}
		if !bytes.Equal(body, reply(statusOK, seq, []byte{7, 7})[4:]) {
			t.Fatalf("seq %d: reply %x", seq, body)
		}
	}
}

// TestDribbledRequest: a request arriving one byte per write is one
// request, answered once.
func TestDribbledRequest(t *testing.T) {
	a := bareAgent()
	mr := a.RegisterMR(StaticSource([]byte{9}), 1)
	cl, sv := net.Pipe()
	defer cl.Close()
	serveOn(t, a, sv)
	for _, b := range pipeRequest(41, mr.Key(), 1) {
		cl.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if _, err := cl.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	want := reply(statusOK, 41, []byte{9})
	got := make([]byte, len(want))
	cl.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(cl, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reply %x, want %x", got, want)
	}
	cl.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := cl.Read(got); n != 0 || err == nil {
		t.Fatalf("agent sent %d more bytes after the one reply (err %v)", n, err)
	}
}

// TestRepliesPastOutputCap: a batch whose replies outgrow the output
// buffer completes, no buffered write exceeds the cap, and a reply
// that alone exceeds it is written through whole.
func TestRepliesPastOutputCap(t *testing.T) {
	a := bareAgent()
	small := bytes.Repeat([]byte{0xA5}, 6000)
	huge := bytes.Repeat([]byte{0x5A}, bufCap+1234)
	smallKey := a.RegisterMR(StaticSource(small), len(small)).Key()
	hugeKey := a.RegisterMR(StaticSource(huge), len(huge)).Key()
	var reqs []BatchRead
	for i := 0; i < 40; i++ { // 40 x 6 KB: several caps' worth
		reqs = append(reqs, BatchRead{RKey: smallKey, Length: len(small)})
		if i == 20 {
			reqs = append(reqs, BatchRead{RKey: hugeKey, Length: len(huge)})
		}
	}
	c, _, stap := tappedConn(t, a)
	res, err := c.RDMAReadBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		want := small
		if reqs[i].RKey == hugeKey {
			want = huge
		}
		if r.Err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("slot %d: %d bytes, err %v", i, len(r.Data), r.Err)
		}
	}
	total, through := 0, 0
	for _, n := range stap.writes() {
		total += n
		switch {
		case n == len(huge):
			through++ // the region's own memory, handed to the socket uncopied
		case n > bufCap:
			t.Fatalf("agent wrote %d buffered bytes at once, cap is %d", n, bufCap)
		}
	}
	if through != 1 {
		t.Fatalf("the over-cap reply was written through %d times, want 1", through)
	}
	if want := 40*(9+len(small)) + 9 + len(huge); total != want {
		t.Fatalf("agent wrote %d bytes, want %d", total, want)
	}
}

// TestHandlerAndSinkMayRetainArgument: requests are parsed out of a
// buffer the next frame overwrites, so what a call handler or a write
// sink receives must be its own copy.
func TestHandlerAndSinkMayRetainArgument(t *testing.T) {
	a := newAgent(t)
	var mu sync.Mutex
	var calls, writes [][]byte
	a.HandleCall("keep", func(p []byte) []byte {
		mu.Lock()
		calls = append(calls, p)
		mu.Unlock()
		return nil
	})
	mr := a.RegisterWritableMR(StaticSource(make([]byte, 64)), 64, func(b []byte) {
		mu.Lock()
		writes = append(writes, b)
		mu.Unlock()
	})
	c := dial(t, a)
	payloads := [][]byte{[]byte("first-payload-AAAA"), []byte("second-payload-BBB"), []byte("third-payload-CCCC")}
	for _, p := range payloads {
		if _, err := c.Call("keep", p); err != nil {
			t.Fatal(err)
		}
		if err := c.RDMAWrite(mr.Key(), p); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range payloads {
		if !bytes.Equal(calls[i], p) {
			t.Fatalf("call handler's retained argument %d changed: %q, want %q", i, calls[i], p)
		}
		if !bytes.Equal(writes[i], p) {
			t.Fatalf("write sink's retained argument %d changed: %q, want %q", i, writes[i], p)
		}
	}
}

// TestReplayIgnoresBufferedBytes: when an attempt fails mid-batch, the
// bytes of the dead stream still sitting in the read buffer — here two
// replies forged for exactly the seqs the replay will draw — must be
// gone before the replay parses anything.
func TestReplayIgnoresBufferedBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(first bool) {
				defer conn.Close()
				var fr frameReader
				var out []byte
				for i := 0; i < 2; i++ {
					body, err := fr.next(conn)
					if err != nil || len(body) != 13 {
						return
					}
					seq := binary.BigEndian.Uint32(body[1:])
					out = append(out, reply(statusOK, seq, []byte("fresh"))...)
				}
				if first {
					// Seq 1 answered, then the stream goes wrong, with
					// replies for seqs 3 and 4 behind it in one segment.
					out = append(reply(statusOK, 1, []byte("old")), reply(statusOK, 3, []byte("stale"))...)
					out = append(out, reply(statusOK, 4, []byte("stale"))...)
				}
				conn.Write(out)
				io.Copy(io.Discard, conn) // until the initiator hangs up
			}(n == 0)
		}
	}()
	c, err := DialTimeout(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 2, Backoff: time.Millisecond}
	res, err := c.RDMAReadBatch([]BatchRead{{RKey: 1, Length: 5}, {RKey: 1, Length: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || string(r.Data) != "fresh" {
			t.Fatalf("slot %d holds %q (err %v): the replay parsed the dead stream's bytes", i, r.Data, r.Err)
		}
	}
	if c.Redials != 1 {
		t.Fatalf("Redials = %d, want 1", c.Redials)
	}
}

// The wire format is the parent's, byte for byte. Both directions are
// driven with frames built by hand in the layout the old two-write
// encoder produced — length header and body as separate writes — so
// an old initiator or agent on the other end of a new one still works.

func TestWireFormatAgentSide(t *testing.T) {
	a := bareAgent()
	region := []byte("0123456789")
	ro := a.RegisterMR(StaticSource(region), len(region)).Key()
	word := make([]byte, 8)
	binary.LittleEndian.PutUint64(word, 0x1122334455667788)
	rw := a.RegisterWritableMR(func() []byte { return append([]byte(nil), word...) }, 8,
		func(b []byte) { copy(word, b) }).Key()
	a.HandleCall("rmon", func(p []byte) []byte { return append([]byte("re:"), p...) })

	cases := []struct {
		name      string
		req, want []byte // bodies: opcode first / status first
	}{
		{"read", cat([]byte{opRead}, be32(ro), be32(4)), cat([]byte{statusOK}, region[:4])},
		{"read bad key", cat([]byte{opRead}, be32(999), be32(4)), []byte{statusBadKey}},
		{"read too long", cat([]byte{opRead}, be32(ro), be32(11)), []byte{statusLength}},
		{"write denied", cat([]byte{opWrite}, be32(ro), []byte{1}), []byte{statusPermission}},
		{"write", cat([]byte{opWrite}, be32(rw), be64(0x8877665544332211)), []byte{statusOK}},
		{"cas", cat([]byte{opCompSwap}, be32(rw), be64(0x1122334455667788), be64(5)), cat([]byte{statusOK}, be64(0x1122334455667788))},
		{"cas read-only", cat([]byte{opCompSwap}, be32(ro), be64(0), be64(5)), []byte{statusPermission}},
		{"call", cat([]byte{opCall, 4}, []byte("rmon"), []byte("ping")), cat([]byte{statusOK}, []byte("re:ping"))},
		{"call no handler", cat([]byte{opCall, 2}, []byte("zz")), []byte{statusNoHandler}},
		{"pipe", cat([]byte{opReadPipe}, be32(0xCAFEF00D), be32(ro), be32(10)), cat([]byte{statusOK}, be32(0xCAFEF00D), region)},
		{"pipe bad key", cat([]byte{opReadPipe}, be32(77), be32(999), be32(1)), cat([]byte{statusBadKey}, be32(77))},
		{"pipe short", []byte{opReadPipe, 0, 0, 0, 1}, []byte{statusLength}},
	}
	cl, sv := loopbackPair(t)
	defer cl.Close()
	serveOn(t, a, sv)
	for _, tc := range cases {
		if tc.name == "cas" {
			binary.LittleEndian.PutUint64(word, 0x1122334455667788) // undo "write"
		}
		cl.Write(be32(uint32(len(tc.req))))
		cl.Write(tc.req)
		want := cat(be32(uint32(len(tc.want))), tc.want)
		got := make([]byte, len(want))
		cl.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(cl, got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reply %x, want %x", tc.name, got, want)
		}
	}
	if got := binary.LittleEndian.Uint64(word); got != 5 {
		t.Fatalf("word = %#x after the CAS, want 5", got)
	}
}

func TestWireFormatInitiatorSide(t *testing.T) {
	// A scripted peer: checks each request against the expected bytes
	// and answers in two writes, header then body, as the old agent did.
	type step struct{ wantReq, replyBody []byte }
	script := []step{
		{frame(cat([]byte{opRead}, be32(7), be32(3))), cat([]byte{statusOK}, []byte("abc"))},
		{frame(cat([]byte{opWrite}, be32(8), []byte("xyz"))), []byte{statusOK}},
		{frame(cat([]byte{opCompSwap}, be32(9), be64(1), be64(2))), cat([]byte{statusOK}, be64(1))},
		{frame(cat([]byte{opCall, 2}, []byte("pt"), []byte("q"))), cat([]byte{statusOK}, []byte("r"))},
		{frame(cat([]byte{opRead}, be32(7), be32(3))), []byte{statusLength}},
	}
	cl, sv := loopbackPair(t)
	peerErr := make(chan error, 1)
	go func() {
		defer sv.Close()
		for i, st := range script {
			got := make([]byte, len(st.wantReq))
			if _, err := io.ReadFull(sv, got); err != nil {
				peerErr <- err
				return
			}
			if !bytes.Equal(got, st.wantReq) {
				t.Errorf("request %d on the wire: %x, want %x", i, got, st.wantReq)
			}
			sv.Write(be32(uint32(len(st.replyBody))))
			time.Sleep(time.Millisecond) // the body in a segment of its own
			sv.Write(st.replyBody)
		}
		// A doorbell: two pipelined reads, answered out of order.
		post := make([]byte, 34)
		if _, err := io.ReadFull(sv, post); err != nil {
			peerErr <- err
			return
		}
		want := cat(pipeRequest(1, 7, 3), pipeRequest(2, 8, 2))
		if !bytes.Equal(post, want) {
			t.Errorf("doorbell on the wire: %x, want %x", post, want)
		}
		sv.Write(reply(statusOK, 2, []byte("BB")))
		sv.Write(reply(statusBadKey, 1, nil))
		peerErr <- nil
	}()
	c := connOn(cl)
	defer c.Close()
	if got, err := c.RDMARead(7, 3); err != nil || string(got) != "abc" {
		t.Fatalf("read: %q, %v", got, err)
	}
	if err := c.RDMAWrite(8, []byte("xyz")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if prev, err := c.CompareSwap(9, 1, 2); err != nil || prev != 1 {
		t.Fatalf("cas: %d, %v", prev, err)
	}
	if got, err := c.Call("pt", []byte("q")); err != nil || string(got) != "r" {
		t.Fatalf("call: %q, %v", got, err)
	}
	if _, err := c.RDMARead(7, 3); err != ErrLength {
		t.Fatalf("read past bounds: %v, want ErrLength", err)
	}
	res, err := c.RDMAReadBatch([]BatchRead{{RKey: 7, Length: 3}, {RKey: 8, Length: 2}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res[0].Err != ErrBadKey || res[1].Err != nil || string(res[1].Data) != "BB" {
		t.Fatalf("batch: %+v", res)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
}
