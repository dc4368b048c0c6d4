package tcpverbs

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"rdmamon/internal/connpool"
)

// frame prefixes body with its u32 length: the wire layout of a frame.
func frame(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader:
// truncated headers, truncated bodies, oversized and lying length
// fields. frameReader.next must never panic, never allocate more than
// the bytes actually present, and must hand back exactly the framed
// body when one is there.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                           // short header
	f.Add(frame(nil))                                // empty body
	f.Add(frame([]byte{opRead, 1, 2, 3}))            // valid-ish frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // 4GB length, no body
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xAB})      // 16MB length, 1 byte
	f.Add(append(frame([]byte{opCall}), 0xDE, 0xAD)) // trailing garbage
	big := frame(bytes.Repeat([]byte{7}, 3*readChunk+17))
	f.Add(big) // multi-chunk body

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := new(frameReader).next(bytes.NewReader(data))
		if len(data) < 4 {
			if err == nil {
				t.Fatal("frame decoded from a short header")
			}
			return
		}
		n := binary.BigEndian.Uint32(data)
		switch {
		case n > maxFrame:
			if err == nil {
				t.Fatalf("accepted oversized frame length %d", n)
			}
		case uint32(len(data)-4) < n:
			if err == nil {
				t.Fatalf("decoded %d-byte body from %d available", n, len(data)-4)
			}
			if err != io.ErrUnexpectedEOF && err != io.EOF {
				t.Fatalf("truncated body: unexpected error %v", err)
			}
		default:
			if err != nil {
				t.Fatalf("valid frame rejected: %v", err)
			}
			if !bytes.Equal(body, data[4:4+n]) {
				t.Fatalf("body mismatch: got %d bytes, want %d", len(body), n)
			}
		}
	})
}

// FuzzServeFrame drives a full agent's dispatch path with arbitrary
// frame bodies over a real connection: whatever the bytes say, the
// agent must answer with a well-formed reply frame or close the
// connection — never panic, never hang.
//
// Connections come from a budgeted pool (MaxConns bounds the harness's
// fd footprint) rather than one dial per input: malformed frames that
// kill the connection recycle it via Invalidate — no breaker or
// backoff charge, the next input redials — so fd pressure can never
// accumulate and a dial failure is a genuine bug, never a skip.
func FuzzServeFrame(f *testing.F) {
	f.Add([]byte{opRead, 0, 0, 0, 1, 0, 0, 0, 120})
	f.Add([]byte{opRead})                   // short read body
	f.Add([]byte{opWrite, 0, 0, 0, 1, 42})  // write to read-only key
	f.Add([]byte{opCall, 4, 'r', 'm', 'o'}) // port length beyond body
	f.Add([]byte{opCall, 0})                // empty port
	f.Add([]byte{99, 1, 2, 3})              // unknown opcode
	f.Add([]byte{})                         // empty body

	a, err := Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { a.Close() })
	static := bytes.Repeat([]byte{9}, 120)
	a.RegisterMR(func() []byte { return static }, 120)
	a.HandleCall("rmon", func(p []byte) []byte { return p })

	pool := connpool.New[string, *Conn](connpool.Config{MaxConns: 4},
		func() int64 { return time.Now().UnixNano() })
	pool.OnClose = func(_ string, c *Conn) { c.Close() }
	f.Cleanup(pool.Close)

	acquire := func(t *testing.T) connpool.Lease[string, *Conn] {
		t.Helper()
		for i := 0; i < 1000; i++ {
			l, v, reason := pool.Acquire(a.Addr(), true)
			switch v {
			case connpool.Conn:
				return l
			case connpool.Dial:
				c, err := DialTimeout(a.Addr(), 2*time.Second)
				if err != nil {
					// The budget guarantees at most MaxConns fds are
					// ever held, so a refused dial is a real transport
					// bug, not harness fd pressure.
					pool.DialFailed(a.Addr())
					t.Fatalf("dial under fd budget failed: %v", err)
				}
				c.Retry = RetryPolicy{Attempts: 1, Backoff: time.Millisecond}
				l, lerr := pool.DialDone(a.Addr(), c)
				if lerr != nil {
					t.Fatalf("pool rejected dialed conn: %v", lerr)
				}
				return l
			default: // Shed: backoff window from a previous failure.
				_ = reason
				time.Sleep(time.Millisecond)
			}
		}
		t.Fatal("pool shed for 1000 rounds; acquisition starved")
		panic("unreachable")
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		l := acquire(t)
		// roundTrip either returns a parsed reply or a transport error
		// (agent dropped the connection). Both are acceptable; what is
		// not acceptable is a panic or a hang past the deadline.
		c := l.Conn
		c.mu.Lock()
		_, _, err := c.roundTrip(func() { c.bell = append(c.bell, frame(body)...) })
		c.mu.Unlock()
		if err != nil {
			// The agent hung up on this frame: expected for malformed
			// input. Recycle without charging the target's breaker so
			// the next input starts from a fresh connection.
			pool.Invalidate(l)
			return
		}
		pool.Release(l, nil)
	})
}

// FuzzServeStream feeds the buffered server loop an arbitrary byte
// stream cut at arbitrary boundaries, over an unbuffered net.Pipe so
// every cut is a separate Read on the agent's side. A small model of
// the dispatch rules says which frames are requests and what shape
// each reply must have; the agent must answer every request before
// the first connection-ending frame exactly once, in order, with the
// seq echoed for opReadPipe — and must do so while the connection
// stays open and silent, i.e. without waiting for input it will never
// get. Past a connection-ending frame it may close at any point, but
// whatever it sent first must still be a prefix of the expected
// replies. Never a panic, never a hang past the deadline.
func FuzzServeStream(f *testing.F) {
	static := bytes.Repeat([]byte{9}, 120)
	read := func(op byte, rest ...byte) []byte { return frame(append([]byte{op}, rest...)) }
	f.Add(read(opRead, 0, 0, 0, 1, 0, 0, 0, 120), []byte{})
	f.Add(append(pipeRequest(1, 1, 4), pipeRequest(2, 1, 200)...), []byte{3, 1, 9})
	f.Add(append(read(opCall, 4, 'r', 'm', 'o', 'n', 'x'), read(opWrite, 0, 0, 0, 2, 1, 2)...), []byte{0})
	f.Add(append(read(opCompSwap, 0, 0, 0, 2), read(99)...), []byte{7, 7})
	f.Add(append(pipeRequest(5, 1, 1), 0, 0, 0), []byte{16})              // trailing partial header
	f.Add(append(pipeRequest(5, 1, 1), 0xFF, 0xFF, 0xFF, 0xFF), []byte{}) // then an oversized length
	f.Add(append(read(opReadPipe, 1, 2), frame(nil)...), []byte{1, 1, 1})

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		a := bareAgent()
		a.idleTimeout = 10 * time.Second
		a.RegisterMR(func() []byte { return static }, len(static))    // key 1
		a.RegisterWritableMR(func() []byte { return static[:8] }, 16, // key 2
			func([]byte) {})
		a.HandleCall("rmon", func(p []byte) []byte { return p })

		// The model: check[i] validates the reply to the i-th request.
		var checks []func(body []byte) bool
		ends := false // the stream holds a frame that ends the connection
		for rest := stream; len(rest) >= 4 && !ends; {
			n := binary.BigEndian.Uint32(rest)
			if n > maxFrame {
				ends = true
				break
			}
			if uint32(len(rest)-4) < n {
				break // incomplete: the agent waits for the rest
			}
			body := rest[4 : 4+n]
			rest = rest[4+n:]
			if len(body) == 0 {
				ends = true
				break
			}
			arg := body[1:]
			// wantRead is what a read with these arguments returns.
			wantRead := func(arg []byte) (data []byte, ok bool) {
				if len(arg) < 8 {
					return nil, false
				}
				key, maxLen := binary.BigEndian.Uint32(arg), binary.BigEndian.Uint32(arg[4:])
				src, size := static, uint32(len(static))
				if key == 2 {
					src, size = static[:8], 16
				}
				if key < 1 || key > 2 || maxLen > size {
					return nil, false
				}
				return src[:min(maxLen, uint32(len(src)))], true
			}
			readReply := func(arg []byte, status byte, got []byte) bool {
				if data, ok := wantRead(arg); ok {
					return status == statusOK && bytes.Equal(got, data)
				}
				return status != statusOK && len(got) == 0
			}
			switch body[0] {
			case opRead:
				checks = append(checks, func(got []byte) bool { return readReply(arg, got[0], got[1:]) })
			case opReadPipe:
				checks = append(checks, func(got []byte) bool {
					if len(arg) < 12 {
						return len(got) == 1 && got[0] == statusLength
					}
					return len(got) >= 5 && bytes.Equal(got[1:5], arg[:4]) && readReply(arg[4:], got[0], got[5:])
				})
			case opWrite:
				checks = append(checks, func(got []byte) bool { return len(got) == 1 })
			case opCompSwap:
				checks = append(checks, func(got []byte) bool {
					return len(got) == 1 && got[0] != statusOK || len(got) == 9 && got[0] == statusOK
				})
			case opCall:
				checks = append(checks, func(got []byte) bool {
					if len(arg) >= 1 && len(arg) >= 1+int(arg[0]) && string(arg[1:1+arg[0]]) == "rmon" {
						return got[0] == statusOK && bytes.Equal(got[1:], arg[1+arg[0]:])
					}
					return len(got) == 1 && got[0] != statusOK
				})
			default:
				ends = true
			}
		}

		cl, sv := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer sv.Close()
			a.serve(sv)
		}()
		deadline := time.Now().Add(5 * time.Second)
		cl.SetDeadline(deadline)

		// Replies are drained concurrently: the pipe has no buffer, so
		// the agent's flush blocks until someone reads.
		type result struct {
			n   int
			bad string
		}
		got := make(chan result, 1)
		allIn := make(chan struct{})
		go func() {
			var fr frameReader
			n := 0
			for {
				if n == len(checks) && !ends {
					<-allIn    // every expected reply is in while the
					cl.Close() // agent still waits for input: hang up
				}
				body, err := fr.next(cl)
				if err != nil {
					got <- result{n: n}
					return
				}
				switch {
				case n == len(checks):
					got <- result{n, "a reply nobody asked for"}
					return
				case len(body) < 1 || body[0] > statusNoHandler:
					got <- result{n, "malformed reply"}
					return
				case !checks[n](body):
					got <- result{n, "reply does not answer its request"}
					return
				}
				n++
			}
		}()
		for off, i := 0, 0; off < len(stream); i++ {
			step := len(stream) - off
			if i < len(cuts) {
				step = min(step, 1+int(cuts[i])%48)
			}
			if _, err := cl.Write(stream[off : off+step]); err != nil {
				break // the agent hung up on a connection-ending frame
			}
			off += step
		}
		close(allIn)
		res := <-got
		cl.Close()
		<-served
		if res.bad != "" {
			t.Fatalf("reply %d of %d: %s", res.n, len(checks), res.bad)
		}
		if !ends && res.n != len(checks) {
			t.Fatalf("agent answered %d of %d requests on a connection it kept open (deadline hit: %v)",
				res.n, len(checks), time.Now().After(deadline))
		}
	})
}
