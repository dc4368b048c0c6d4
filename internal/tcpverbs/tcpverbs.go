// Package tcpverbs emulates the small slice of the RDMA verbs API the
// monitoring library needs — memory registration and one-sided reads —
// over plain TCP, so the library runs on clusters without InfiniBand
// hardware.
//
// The emulation preserves the property that matters: a remote read is
// served entirely by a dedicated responder goroutine (standing in for
// the NIC's DMA engine) without involving the application's own
// goroutines. What it cannot preserve is the kernel-bypass cost model:
// reads still traverse the host TCP stack, so this transport is a
// functional substitute, not a performance-faithful one (see
// DESIGN.md's substitution table).
//
// Wire protocol (all integers big-endian):
//
//	frame     := u32 length, u8 opcode, body
//	opRead    : u32 rkey, u32 maxLen          -> status, data
//	opWrite   : u32 rkey, data                -> status
//	opCall    : u8 portLen, port, payload     -> status, reply
//	opCompSwap: u32 rkey, u64 compare, u64 swap -> status, u64 prev
//	opReadPipe: u32 seq, u32 rkey, u32 maxLen -> status, u32 seq, data
//	reply     := u32 length, u8 status, body
//
// opReadPipe is the pipelined form of opRead: an initiator posts k of
// them back-to-back without waiting for replies (k reads in flight on
// one connection, one round trip for the whole batch) and matches each
// completion to its work request by the echoed seq — never by arrival
// order, so a reordering or desynchronized peer can make a read fail
// but can never mis-attribute one region's bytes to another request.
//
// Socket discipline: a doorbell is one syscall. Every request frame —
// and a whole opReadPipe batch — leaves the initiator in one Write,
// header and body together, and replies are parsed out of a
// connection-owned read buffer, so a batch completes in a few Reads.
// The agent parses requests the same way and collects its replies in
// a per-connection output buffer, which it writes when the next reply
// would push it past a fixed cap (a reply larger than the cap goes
// out uncopied, in one vectored write) and, above all, before it
// blocks: the agent never waits for input while it holds an unflushed
// reply. That rule is the whole deadlock argument — an initiator only
// ever waits for replies to requests it has fully sent, the agent
// reads on until no complete request is buffered, and at that point
// everything it owes is already on the wire — and it is why batching
// replies costs an unpipelined initiator no latency. Replies leave in
// request order; every blocking read and every write, cap-triggered
// flushes included, runs under a deadline; a redial discards both
// ends' buffers with the stream they came from. None of this is
// visible on the wire: frame boundaries never depended on write
// boundaries, so peers from before the buffering interoperate.
package tcpverbs

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Opcodes.
const (
	opRead     = 1
	opWrite    = 2
	opCall     = 3
	opCompSwap = 4
	opReadPipe = 5
)

// Status codes mirrored from the simulated fabric's completion errors.
const (
	statusOK = iota
	statusBadKey
	statusPermission
	statusLength
	statusNoHandler
)

// Errors returned by initiator operations.
var (
	ErrBadKey     = errors.New("tcpverbs: invalid remote key")
	ErrPermission = errors.New("tcpverbs: remote access permission denied")
	ErrLength     = errors.New("tcpverbs: access beyond region bounds")
	ErrNoHandler  = errors.New("tcpverbs: no handler for port")
	ErrClosed     = errors.New("tcpverbs: connection closed")
	// ErrFenced reports a compare-and-swap whose bid can never succeed:
	// the remote word has moved to a strictly newer epoch than the bid
	// targets, so the caller has been deposed (or bid from a stale
	// observation an epoch behind). Returned by CompareSwapFenced only.
	ErrFenced = errors.New("tcpverbs: compare-and-swap fenced by a newer epoch")
)

const maxFrame = 16 << 20

// readChunk bounds per-allocation growth while reading a frame body:
// a lying length header can only cost memory as fast as the peer
// actually sends bytes, never maxFrame up front.
const readChunk = 64 << 10

// Default deadlines. Every read and write on a connection carries one;
// a dead peer costs a bounded wait, never a stuck goroutine.
const (
	// DefaultOpTimeout bounds one initiator operation (write + reply).
	DefaultOpTimeout = 10 * time.Second
	// DefaultIdleTimeout is how long an agent keeps an idle connection
	// before assuming the initiator is gone.
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultWriteTimeout bounds an agent's reply write.
	DefaultWriteTimeout = 10 * time.Second
)

// RetryPolicy governs the initiator's redial-and-replay behaviour when
// an operation fails at the transport level. All operations the
// monitoring library issues (reads, load-record calls, record writes)
// are idempotent, so replaying a possibly-delivered frame is safe.
type RetryPolicy struct {
	// Attempts is the total number of tries per operation (default 3).
	Attempts int
	// Backoff is the delay before the first retry; it doubles each
	// attempt (default 25ms).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 500ms).
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter/2 of its value
	// (default 0.5), de-synchronizing probers that all saw the same
	// back-end die at the same moment.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.5
	}
	return p
}

func statusErr(s byte) error {
	switch s {
	case statusOK:
		return nil
	case statusBadKey:
		return ErrBadKey
	case statusPermission:
		return ErrPermission
	case statusLength:
		return ErrLength
	case statusNoHandler:
		return ErrNoHandler
	}
	return fmt.Errorf("tcpverbs: unknown status %d", s)
}

// Source supplies a region's bytes at read time, exactly like
// simnet.Source: for live kernel statistics it is a closure that
// samples /proc when the "DMA" happens.
type Source func() []byte

// MR is a registered memory region on an Agent.
type MR struct {
	key      uint32
	size     int
	source   Source
	writable bool
	sink     func([]byte)
}

// Key returns the region's remote key.
func (m *MR) Key() uint32 { return m.key }

// Agent is the passive side: it owns registered regions and serves
// remote reads/writes/calls. One Agent per process plays the role of
// the RDMA NIC.
type Agent struct {
	ln net.Listener

	// IdleTimeout / WriteTimeout override the defaults when set before
	// the first connection arrives.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	mu       sync.RWMutex
	mrs      map[uint32]*MR
	nextKey  uint32
	handlers map[string]func([]byte) []byte
	conns    map[net.Conn]struct{}
	closed   bool

	// ServedReads counts reads served (for tests/metrics).
	served struct {
		sync.Mutex
		reads, writes, calls, atomics, batched uint64
	}

	// atomics serializes compare-and-swap against every other CAS on
	// this agent, giving the emulated verb the responder-side atomicity
	// a real HCA provides in hardware.
	atomics sync.Mutex

	wg sync.WaitGroup
}

// Listen starts an agent on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Agent, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		ln:       ln,
		mrs:      make(map[uint32]*MR),
		handlers: make(map[string]func([]byte) []byte),
		conns:    make(map[net.Conn]struct{}),
	}
	a.wg.Add(1)
	go a.acceptLoop()
	return a, nil
}

// Addr returns the agent's listen address.
func (a *Agent) Addr() string { return a.ln.Addr().String() }

// Stats returns served operation counts.
func (a *Agent) Stats() (reads, writes, calls uint64) {
	a.served.Lock()
	defer a.served.Unlock()
	return a.served.reads, a.served.writes, a.served.calls
}

// Atomics returns the number of compare-and-swap operations served.
func (a *Agent) Atomics() uint64 {
	a.served.Lock()
	defer a.served.Unlock()
	return a.served.atomics
}

// BatchedReads returns the number of reads served via the pipelined
// opReadPipe path (a subset of the reads count).
func (a *Agent) BatchedReads() uint64 {
	a.served.Lock()
	defer a.served.Unlock()
	return a.served.batched
}

// RegisterMR pins a read-only region of size bytes served by src.
func (a *Agent) RegisterMR(src Source, size int) *MR {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextKey++
	mr := &MR{key: a.nextKey, size: size, source: src}
	a.mrs[mr.key] = mr
	return mr
}

// RegisterWritableMR pins a region that also accepts remote writes.
func (a *Agent) RegisterWritableMR(src Source, size int, sink func([]byte)) *MR {
	mr := a.RegisterMR(src, size)
	a.mu.Lock()
	mr.writable = true
	mr.sink = sink
	a.mu.Unlock()
	return mr
}

// Deregister unpins a region.
func (a *Agent) Deregister(mr *MR) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.mrs, mr.key)
}

// HandleCall installs a request/response handler for channel-semantics
// exchanges (the socket-based monitoring schemes).
func (a *Agent) HandleCall(port string, h func(payload []byte) []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.handlers[port] = h
}

// Close stops the agent, closes open connections and waits for its
// goroutines.
func (a *Agent) Close() error {
	a.mu.Lock()
	a.closed = true
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}

func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		c, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			c.Close()
			return
		}
		a.conns[c] = struct{}{}
		a.mu.Unlock()
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			defer func() {
				c.Close()
				a.mu.Lock()
				delete(a.conns, c)
				a.mu.Unlock()
			}()
			a.serve(c)
		}()
	}
}

// serve answers one connection's requests until it fails or turns
// malformed: requests parsed out of a per-connection read buffer,
// replies collected in a per-connection output buffer that is flushed
// before every blocking read and whenever the next reply would not
// fit (the package comment has the rule and why it cannot deadlock).
func (a *Agent) serve(c net.Conn) {
	idle, write := a.IdleTimeout, a.WriteTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}
	if write <= 0 {
		write = DefaultWriteTimeout
	}
	var rd frameReader
	out := replyWriter{c: c, timeout: write}
	var word [8]byte
serving:
	for {
		if !rd.ready() {
			if out.flush() != nil {
				return
			}
			c.SetReadDeadline(time.Now().Add(idle))
		}
		// body aliases the read buffer and is overwritten by the next
		// frame: whatever outlives this iteration is copied (doWrite,
		// doCall) or appended to the output before the loop turns.
		body, err := rd.next(c)
		if err != nil || len(body) < 1 {
			break
		}
		op, body := body[0], body[1:]
		var status byte
		var seq, resp []byte
		switch op {
		case opRead:
			status, resp = a.doRead(body)
			a.served.Lock()
			a.served.reads++
			a.served.Unlock()
		case opWrite:
			status = a.doWrite(body)
			a.served.Lock()
			a.served.writes++
			a.served.Unlock()
		case opCall:
			status, resp = a.doCall(body)
			a.served.Lock()
			a.served.calls++
			a.served.Unlock()
		case opCompSwap:
			var prev uint64
			if status, prev = a.doCompSwap(body); status == statusOK {
				binary.BigEndian.PutUint64(word[:], prev)
				resp = word[:]
			}
			a.served.Lock()
			a.served.atomics++
			a.served.Unlock()
		case opReadPipe:
			// Like opRead, with the request's sequence number echoed
			// ahead of the data so the initiator can match the
			// completion to its work request.
			if len(body) < 12 {
				status = statusLength
			} else {
				seq = body[:4]
				status, resp = a.doRead(body[4:])
			}
			a.served.Lock()
			a.served.reads++
			a.served.batched++
			a.served.Unlock()
		default:
			break serving
		}
		if out.reply(status, seq, resp) != nil {
			return
		}
	}
	out.flush() // the connection ends on a malformed frame; earlier answers are still owed
}

// replyWriter collects a served connection's reply frames and writes
// them to the socket in as few Writes as the flush rule allows. The
// buffer grows on demand and never past bufCap.
type replyWriter struct {
	c       net.Conn
	timeout time.Duration
	buf     []byte
}

// flush writes the pending replies, under the write deadline.
func (w *replyWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	_, err := w.c.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// reply queues one reply frame: length, status, the echoed seq of a
// pipelined read (else nil), data. Pending replies are flushed first
// when this one would push the buffer past bufCap; a reply that alone
// exceeds bufCap is written through — header and data in one vectored
// write — without copying data.
func (w *replyWriter) reply(status byte, seq, data []byte) error {
	head := 5 + len(seq)
	size := head + len(data)
	if len(w.buf)+size > bufCap {
		if err := w.flush(); err != nil {
			return err
		}
	}
	need := len(w.buf) + size
	if size > bufCap {
		need = head // written through: only the head is staged
	}
	if need > cap(w.buf) {
		nb := make([]byte, len(w.buf), min(max(2*cap(w.buf), need, bufMin), bufCap))
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(size-4))
	w.buf = append(w.buf, status)
	w.buf = append(w.buf, seq...)
	if size <= bufCap {
		w.buf = append(w.buf, data...)
		return nil
	}
	w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	bufs := net.Buffers{w.buf, data}
	_, err := bufs.WriteTo(w.c)
	w.buf = w.buf[:0]
	return err
}

func (a *Agent) doRead(body []byte) (byte, []byte) {
	if len(body) < 8 {
		return statusLength, nil
	}
	key := binary.BigEndian.Uint32(body[0:])
	maxLen := int(binary.BigEndian.Uint32(body[4:]))
	a.mu.RLock()
	mr := a.mrs[key]
	a.mu.RUnlock()
	if mr == nil {
		return statusBadKey, nil
	}
	if maxLen > mr.size {
		return statusLength, nil
	}
	data := mr.source()
	if maxLen < len(data) {
		data = data[:maxLen]
	}
	return statusOK, data
}

func (a *Agent) doWrite(body []byte) byte {
	if len(body) < 4 {
		return statusLength
	}
	key := binary.BigEndian.Uint32(body[0:])
	data := body[4:]
	a.mu.RLock()
	mr := a.mrs[key]
	a.mu.RUnlock()
	switch {
	case mr == nil:
		return statusBadKey
	case !mr.writable:
		return statusPermission
	case len(data) > mr.size:
		return statusLength
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	mr.sink(cp)
	return statusOK
}

// doCompSwap atomically compares the first 8 bytes of a writable
// region against compare and, on match, replaces them with swap. The
// pre-operation value is always returned, like a real HCA's masked
// atomic. The atomics mutex spans the read-compare-write sequence, so
// concurrent CAS from different connections serialize exactly as they
// would on the responder NIC. prev is meaningful — and sent — only
// with statusOK.
func (a *Agent) doCompSwap(body []byte) (status byte, prev uint64) {
	if len(body) < 20 {
		return statusLength, 0
	}
	key := binary.BigEndian.Uint32(body[0:])
	compare := binary.BigEndian.Uint64(body[4:])
	swap := binary.BigEndian.Uint64(body[12:])
	a.mu.RLock()
	mr := a.mrs[key]
	a.mu.RUnlock()
	switch {
	case mr == nil:
		return statusBadKey, 0
	case !mr.writable:
		return statusPermission, 0
	case mr.size < 8:
		return statusLength, 0
	}
	a.atomics.Lock()
	defer a.atomics.Unlock()
	cur := mr.source()
	if len(cur) < 8 {
		return statusLength, 0
	}
	prev = binary.LittleEndian.Uint64(cur[:8])
	if prev == compare {
		next := make([]byte, len(cur))
		copy(next, cur)
		binary.LittleEndian.PutUint64(next[:8], swap)
		mr.sink(next)
	}
	return statusOK, prev
}

func (a *Agent) doCall(body []byte) (byte, []byte) {
	if len(body) < 1 {
		return statusLength, nil
	}
	pl := int(body[0])
	if len(body) < 1+pl {
		return statusLength, nil
	}
	a.mu.RLock()
	h := a.handlers[string(body[1:1+pl])]
	a.mu.RUnlock()
	if h == nil {
		return statusNoHandler, nil
	}
	// body is the connection's read buffer; a handler may keep its
	// argument, so it gets a copy (as a write sink does).
	return statusOK, h(append([]byte(nil), body[1+pl:]...))
}

// Conn is an initiator endpoint ("queue pair") to one remote agent.
// It is safe for concurrent use; operations are serialized.
//
// Every operation runs under a deadline, and a transport failure
// (reset, timeout, mid-frame EOF) triggers redial-and-replay with
// exponential backoff and jitter, up to Retry.Attempts tries — so a
// back-end restarting on the same address is survived transparently,
// and a dead one costs a bounded, predictable delay.
type Conn struct {
	mu      sync.Mutex // serializes operations, held across one's retries
	addr    string
	opTmo   time.Duration
	rng     *rand.Rand
	pipeSeq uint32

	// sock guards closing. It is never held across I/O, so Close does
	// not wait behind an operation in flight. c is replaced only with
	// both locks held: operations read it under mu, Close under sock.
	sock sync.Mutex
	c    net.Conn
	done chan struct{} // closed by Close; also cuts a retry backoff short

	// Per-connection scratch (guarded by mu, like every operation):
	// request-frame staging, the batch post buffer and its completion
	// set, and the buffer replies are parsed out of. A steady-state
	// probe loop on one connection reuses all of them instead of
	// allocating per op.
	frame   []byte
	postBuf []byte
	filled  []bool
	rd      frameReader

	// Retry is the redial/replay policy; the zero value takes the
	// documented defaults. Set it before issuing operations.
	Retry RetryPolicy

	// Redials counts successful reconnects (for tests/metrics).
	Redials uint64
}

// Dial connects to a remote agent with DefaultOpTimeout per operation.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, DefaultOpTimeout)
}

// DialTimeout connects with an explicit per-operation deadline.
// opTimeout <= 0 takes DefaultOpTimeout: there is deliberately no way
// to get a deadline-less connection.
func DialTimeout(addr string, opTimeout time.Duration) (*Conn, error) {
	if opTimeout <= 0 {
		opTimeout = DefaultOpTimeout
	}
	c, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &Conn{
		c:     c,
		done:  make(chan struct{}),
		addr:  addr,
		opTmo: opTimeout,
		rng:   rand.New(rand.NewSource(jitterSeed())),
	}, nil
}

// jitterSeed draws a backoff-jitter seed from the system entropy pool.
// Jitter exists to de-synchronize many initiators retrying at once;
// wall-clock seeding would hand simultaneous dialers nearly identical
// seeds — the exact correlation jitter is meant to destroy.
func jitterSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.BigEndian.Uint64(b[:]))
}

// SeedJitter replaces the connection's backoff-jitter RNG with a
// deterministically seeded one, making the retry schedule reproducible
// (tests and the chaos harness pin it; production keeps the
// entropy-pool default).
func (c *Conn) SeedJitter(seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rng = rand.New(rand.NewSource(seed))
}

// Close tears the connection down without waiting for an operation in
// flight: that operation's socket I/O fails at once, it returns
// ErrClosed instead of redialing, and subsequent operations fail
// without retrying.
func (c *Conn) Close() error {
	c.sock.Lock()
	defer c.sock.Unlock()
	if !c.isClosed() {
		close(c.done)
	}
	return c.c.Close()
}

func (c *Conn) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// retrying runs op under the connection's redial-and-replay policy:
// exponential backoff with ±Jitter/2 randomization, redial before each
// retry, the stream poisoned after a failed attempt. Caller holds
// c.mu; op must be idempotent.
func (c *Conn) retrying(op func() error) error {
	pol := c.Retry.withDefaults()
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if c.isClosed() {
			return ErrClosed
		}
		if attempt > 0 {
			d := backoff
			if pol.Jitter > 0 {
				f := 1 + pol.Jitter*(c.rng.Float64()-0.5)
				d = time.Duration(float64(d) * f)
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-c.done:
				t.Stop()
				return ErrClosed
			}
			backoff *= 2
			if backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
			if err := c.redial(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := op(); err != nil {
			lastErr = err
			// Poison the stream: the next attempt redials, and nothing
			// already read from this one is ever parsed again.
			c.c.Close()
			c.rd.reset()
			continue
		}
		return nil
	}
	if c.isClosed() {
		return ErrClosed
	}
	return lastErr
}

// redial replaces the underlying stream and discards whatever the old
// one left in the read buffer. Caller holds c.mu.
func (c *Conn) redial() error {
	if c.isClosed() {
		return ErrClosed
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opTmo)
	if err != nil {
		return err
	}
	c.sock.Lock()
	defer c.sock.Unlock()
	if c.isClosed() {
		nc.Close()
		return ErrClosed
	}
	c.c.Close()
	c.c = nc
	c.rd.reset()
	c.Redials++
	return nil
}

// stage returns scratch for a request frame whose body (opcode
// included) is n bytes, with the length header filled in: header and
// body leave in one Write. Frames past bufCap are one-off allocations
// so a single large write does not pin its size on the connection.
// Caller holds c.mu.
func (c *Conn) stage(n int) []byte {
	f := c.frame
	if size := 4 + n; size <= cap(f) {
		f = f[:size]
	} else {
		f = make([]byte, size)
		if size <= bufCap {
			c.frame = f
		}
	}
	binary.BigEndian.PutUint32(f, uint32(n))
	return f
}

// roundTrip sends one staged request frame and returns the reply's
// status and body under the retry policy. The body aliases the read
// buffer and is valid only until the connection's next operation:
// callers copy what they keep before releasing c.mu, which they hold.
func (c *Conn) roundTrip(frame []byte) (status byte, body []byte, err error) {
	err = c.retrying(func() error {
		c.c.SetDeadline(time.Now().Add(c.opTmo))
		if _, err := c.c.Write(frame); err != nil {
			return err
		}
		reply, err := c.rd.next(c.c)
		if err != nil {
			return err
		}
		if len(reply) < 1 {
			return ErrClosed
		}
		status, body = reply[0], reply[1:]
		return nil
	})
	return status, body, err
}

// RDMARead fetches up to length bytes of the remote region. The remote
// application is not involved: the agent's responder goroutine serves
// the read directly.
func (c *Conn) RDMARead(rkey uint32, length int) ([]byte, error) {
	return c.RDMAReadInto(rkey, length, nil)
}

// RDMAReadInto is RDMARead with caller-owned payload storage: the
// reply lands in buf (grown only when too small) and the request frame
// and reply frame stage through per-connection scratch, so a steady
// probe loop allocates nothing per read once warm.
func (c *Conn) RDMAReadInto(rkey uint32, length int, buf []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.stage(9)
	f[4] = opRead
	binary.BigEndian.PutUint32(f[5:], rkey)
	binary.BigEndian.PutUint32(f[9:], uint32(length))
	status, data, err := c.roundTrip(f)
	if err != nil {
		return nil, err
	}
	return append(buf[:0], data...), statusErr(status)
}

// BatchRead describes one read in a pipelined batch.
type BatchRead struct {
	RKey   uint32
	Length int
}

// BatchResult is one completion of a pipelined batch, in the same
// position as its work request. Err carries per-read verb errors
// (ErrBadKey, ErrLength, ...); transport failures abort the whole
// batch instead.
type BatchResult struct {
	Data []byte
	Err  error
}

// RDMAReadBatch posts every read back-to-back on the connection
// without waiting for replies — k reads in flight, one round trip for
// the whole batch — then matches each completion to its work request
// by the echoed sequence number. This is the TCP analogue of a
// doorbell-batched multi-WR post.
//
// A transport failure (or any desynchronization: duplicate, unknown
// or missing seq) aborts the batch and triggers redial-and-replay of
// the whole batch under the connection's retry policy; reads are
// idempotent, so replaying a possibly-served batch is safe. Fresh
// sequence numbers are drawn per attempt, so a stale reply from an
// aborted attempt can never satisfy a later one.
func (c *Conn) RDMAReadBatch(reqs []BatchRead) ([]BatchResult, error) {
	return c.RDMAReadBatchInto(reqs, nil)
}

// RDMAReadBatchInto is RDMAReadBatch with caller-owned result storage:
// when results has the capacity it is recycled, each slot's Data
// buffer included, and the post buffer, completion set and reply
// frames all stage through per-connection scratch. Pass the returned
// slice back on the next call and a steady-state sweep posts batches
// with no per-batch allocation.
func (c *Conn) RDMAReadBatchInto(reqs []BatchRead, results []BatchResult) ([]BatchResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := results
	err := c.retrying(func() error {
		var e error
		out, e = c.attemptBatch(reqs, results)
		return e
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// attemptBatch performs one pipelined write-all-then-read-all pass
// under the operation deadline: the whole doorbell leaves in one
// Write, its seqs consecutive from a fresh base. Caller holds c.mu.
func (c *Conn) attemptBatch(reqs []BatchRead, into []BatchResult) ([]BatchResult, error) {
	base := c.pipeSeq + 1
	c.pipeSeq += uint32(len(reqs))
	buf := c.postBuf[:0]
	for i, rq := range reqs {
		var frame [17]byte
		binary.BigEndian.PutUint32(frame[0:], 13)
		frame[4] = opReadPipe
		binary.BigEndian.PutUint32(frame[5:], base+uint32(i))
		binary.BigEndian.PutUint32(frame[9:], rq.RKey)
		binary.BigEndian.PutUint32(frame[13:], uint32(rq.Length))
		buf = append(buf, frame[:]...)
	}
	c.postBuf = buf
	c.c.SetDeadline(time.Now().Add(c.opTmo))
	if _, err := c.c.Write(buf); err != nil {
		return nil, err
	}
	return c.collectBatchRepliesInto(c.c, base, len(reqs), into)
}

// collectBatchRepliesInto reads n reply frames from r and attributes
// each to the work request whose seq it echoes; the batch's seqs are
// base, base+1, … (wrapping), so slot = seq − base and anything out of
// range is an unknown seq. Any desynchronization — a reply too short
// to carry a seq, an unknown seq, a duplicate completion — is a
// transport-level error for the whole batch: a confused stream may
// fail a batch but can never mis-attribute one request's bytes to
// another. into is recycled when its capacity suffices (each slot's
// Data buffer included); replies parse out of the connection's read
// buffer and the completion set is connection scratch, so a warm
// batch allocates nothing. Takes r so the fuzzer can drive it with
// arbitrary byte streams.
func (c *Conn) collectBatchRepliesInto(r io.Reader, base uint32, n int, into []BatchResult) ([]BatchResult, error) {
	var results []BatchResult
	if cap(into) >= n {
		results = into[:n]
	} else {
		results = make([]BatchResult, n)
	}
	if cap(c.filled) < n {
		c.filled = make([]bool, n)
	}
	filled := c.filled[:n]
	clear(filled)
	for k := 0; k < n; k++ {
		body, err := c.rd.next(r)
		if err != nil {
			return nil, err
		}
		if len(body) < 5 {
			return nil, fmt.Errorf("tcpverbs: pipelined reply too short to carry a seq")
		}
		status := body[0]
		if status > statusNoHandler {
			// Statuses come only from our own agent; an unknown byte
			// here means the stream is corrupt, not that one read
			// failed.
			return nil, fmt.Errorf("tcpverbs: unknown status %d in pipelined reply", status)
		}
		seq := binary.BigEndian.Uint32(body[1:5])
		i := seq - base
		if i >= uint32(n) {
			return nil, fmt.Errorf("tcpverbs: completion for unknown seq %d", seq)
		}
		if filled[i] {
			return nil, fmt.Errorf("tcpverbs: duplicate completion for seq %d", seq)
		}
		filled[i] = true
		if err := statusErr(status); err != nil {
			results[i] = BatchResult{Data: results[i].Data[:0], Err: err}
			continue
		}
		results[i] = BatchResult{Data: append(results[i].Data[:0], body[5:]...)}
	}
	return results, nil
}

// RDMAWrite stores data into the remote region (if writable).
func (c *Conn) RDMAWrite(rkey uint32, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.stage(5 + len(data))
	f[4] = opWrite
	binary.BigEndian.PutUint32(f[5:], rkey)
	copy(f[9:], data)
	status, _, err := c.roundTrip(f)
	if err != nil {
		return err
	}
	return statusErr(status)
}

// CompareSwap atomically compares the first 8 bytes of the remote
// writable region (read little-endian, matching wire.PackLeaseWord's
// in-region layout) against compare and installs swap on match. It
// returns the pre-operation value; prev == compare means the swap
// applied.
//
// Unlike reads and writes, a CAS is not idempotent under the redial-
// and-replay retry policy: if the first attempt applied but its reply
// was lost, the replay compares against a value the region no longer
// holds and reports a loss the caller actually won. Lease callers are
// safe with that — a false loss is conservative (the bidder re-observes
// the word, sees itself named, and proceeds from there) — but callers
// needing exactly-once semantics must disable retries.
func (c *Conn) CompareSwap(rkey uint32, compare, swap uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.stage(21)
	f[4] = opCompSwap
	binary.BigEndian.PutUint32(f[5:], rkey)
	binary.BigEndian.PutUint64(f[9:], compare)
	binary.BigEndian.PutUint64(f[17:], swap)
	status, data, err := c.roundTrip(f)
	if err != nil {
		return 0, err
	}
	if err := statusErr(status); err != nil {
		return 0, err
	}
	if len(data) < 8 {
		return 0, ErrClosed
	}
	return binary.BigEndian.Uint64(data), nil
}

// CompareSwapFenced is CompareSwap specialized to epoch-numbered words
// (the wire.PackLeaseWord / wire.PackClaimWord layout: epoch in bits
// 32..47). It repairs the hazard CompareSwap documents — a CAS is not
// idempotent under redial-and-replay — by recognizing the replay of an
// already-applied bid: when the observed value equals swap, the first
// attempt won and only its reply was lost, so the caller is told the
// win (prev == compare) instead of a false loss. This is sound because
// protocol bids are unique in the word's history: a takeover installs
// (owner, epoch+1, 0) for a strictly fresh epoch, and a renewal
// installs a strictly increasing stamp within the epoch, so observing
// one's own swap value can only mean one's own CAS applied it.
//
// A genuine loss whose observed epoch is strictly newer than the bid's
// surfaces as ErrFenced: the bid is permanently stale (deposed holder,
// or a bidder an epoch behind) and no amount of retrying this operand
// pair can win. A loss at the bid's own epoch returns (prev, nil) —
// the caller re-observes and decides. Epochs compare serially, so the
// distinction survives uint16 wraparound.
func (c *Conn) CompareSwapFenced(rkey uint32, compare, swap uint64) (uint64, error) {
	prev, err := c.CompareSwap(rkey, compare, swap)
	if err != nil {
		return prev, err
	}
	if prev == compare {
		return prev, nil // won outright
	}
	if prev == swap && swap != compare {
		return compare, nil // replay of an applied bid: the win was ours
	}
	pe, be := uint16(prev>>32), uint16(swap>>32)
	if pe != be && pe-be < 0x8000 { // serial: prev's epoch strictly newer
		return prev, ErrFenced
	}
	return prev, nil
}

// Call performs a request/response exchange with a named handler on
// the agent — the channel-semantics path used by the socket schemes.
func (c *Conn) Call(port string, payload []byte) ([]byte, error) {
	if len(port) > 255 {
		return nil, fmt.Errorf("tcpverbs: port name too long")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.stage(2 + len(port) + len(payload))
	f[4] = opCall
	f[5] = byte(len(port))
	copy(f[6:], port)
	copy(f[6+len(port):], payload)
	status, data, err := c.roundTrip(f)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), statusErr(status)
}

// Connection buffers — the read buffer at either end, the agent's
// reply buffer — are allocated at bufMin on first use and grow on
// demand, never past bufCap: a dial stays cheap and memory follows
// what a connection actually carries. A frame of up to bufCap bytes is
// parsed in place; a larger one takes the chunked path.
const (
	bufMin = 512
	bufCap = readChunk
)

// frameReader parses length-prefixed frames out of a connection-owned
// buffer, so one socket Read can deliver many frames and a frame's
// header and body never cost a Read each. A returned body aliases the
// buffer and is valid until the following call.
type frameReader struct {
	buf  []byte // buf[r:w] is read from the socket and not yet parsed
	r, w int
	full bool // the last Read filled buf to its end: more is likely waiting
}

// reset discards everything buffered (the stream it came from is dead).
func (fr *frameReader) reset() { fr.r, fr.w, fr.full = 0, 0, false }

// ready reports whether next will return without reading the socket:
// a whole frame is buffered, or a length that fails without a read.
func (fr *frameReader) ready() bool {
	have := fr.w - fr.r
	if have < 4 {
		return false
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
	return n > maxFrame || have-4 >= n
}

// next returns the body of the next frame, reading from r only while
// the buffer does not already hold it.
func (fr *frameReader) next(r io.Reader) ([]byte, error) {
	if err := fr.fill(r, 4); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
	fr.r += 4
	if n > maxFrame {
		return nil, fmt.Errorf("tcpverbs: frame too large (%d)", n)
	}
	if n > bufCap {
		return fr.nextLarge(r, n)
	}
	if err := fr.fill(r, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	// Capacity clipped: appending to a body must not reach the frames
	// buffered behind it.
	body := fr.buf[fr.r : fr.r+n : fr.r+n]
	fr.r += n
	return body, nil
}

// fill reads until at least need (<= bufCap) unparsed bytes are
// buffered.
func (fr *frameReader) fill(r io.Reader, need int) error {
	for empty := 0; fr.w-fr.r < need; {
		fr.makeRoom(need)
		m, err := r.Read(fr.buf[fr.w:])
		fr.w += m
		fr.full = fr.w == len(fr.buf)
		if fr.w-fr.r >= need {
			break // a read error, if any, comes back on the next Read
		}
		if err != nil {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if m == 0 {
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// makeRoom moves the unparsed tail — always shorter than one frame —
// to the front of buf, and grows buf when it cannot hold need bytes or
// when the last Read filled it.
func (fr *frameReader) makeRoom(need int) {
	size := len(fr.buf)
	if fr.full {
		size *= 2
	}
	size = min(max(size, need, bufMin), bufCap)
	if size > len(fr.buf) {
		nb := make([]byte, size)
		fr.w = copy(nb, fr.buf[fr.r:fr.w])
		fr.buf, fr.r = nb, 0
	} else if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
}

// nextLarge reads the n-byte body of a frame too big to parse in
// place into storage of its own, grown in bounded chunks as bytes
// actually arrive: a hostile or corrupted length field costs memory
// only as fast as the peer delivers payload, and truncation fails at
// the current chunk.
func (fr *frameReader) nextLarge(r io.Reader, n int) ([]byte, error) {
	// Everything buffered belongs to this frame: the buffer holds at
	// most bufCap bytes and n is larger.
	body := append(make([]byte, 0, readChunk), fr.buf[fr.r:fr.w]...)
	fr.reset()
	for len(body) < n {
		off := len(body)
		body = append(body, make([]byte, min(n-off, readChunk))...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}
