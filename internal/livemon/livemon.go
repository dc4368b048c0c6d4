// Package livemon runs the monitoring schemes for real: agents sample
// actual machine load (via procfs) and serve it over TCP using the
// verbs-style emulation in tcpverbs. It is the deployable counterpart
// of the simulated core package — same record format, same scheme
// semantics:
//
//   - Socket-Async / Socket-Sync: request/response calls that involve
//     the agent application per probe (Socket-Sync samples per probe,
//     Socket-Async answers from a periodically refreshed buffer).
//   - RDMA-Async: one-sided read of a periodically refreshed region.
//   - RDMA-Sync / e-RDMA-Sync: one-sided read whose region source
//     samples the machine at read time, served by the transport's
//     responder (the "NIC") with no agent-application involvement.
package livemon

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/procfs"
	"rdmamon/internal/sim"
	"rdmamon/internal/tcpverbs"
	"rdmamon/internal/wire"
)

// Ports used over the tcpverbs transport.
const (
	portInfo  = "rmon-info"
	portProbe = "rmon"
)

// Config configures a live agent.
type Config struct {
	Scheme   core.Scheme
	Addr     string // listen address, e.g. ":9377" or "127.0.0.1:0"
	NodeID   uint16
	Interval time.Duration // async refresh period (default 50ms)
	Provider procfs.Provider

	// HistoryK, when positive under an RDMA scheme, publishes a K-slot
	// history ring instead of the single-record region: a background
	// sampler pushes a timestamped record every Interval, so one
	// one-sided read hands the front-end the last K samples (see
	// wire.HistoryRing). The sync schemes additionally push a fresh
	// sample as each read is served, preserving their freshness
	// contract. Clamped to wire.MaxRingSlots; socket schemes ignore it.
	HistoryK int

	// HostClaims, when positive, additionally makes this agent the
	// front-end claim witness: it registers HostClaims per-shard claim
	// words and records as writable regions (mutated only by remote
	// one-sided CAS/write) and serves their keys on a control port. One
	// shard is HA (one primary, warm standbys); more is active-active.
	// Hosting costs the agent application nothing per operation, like
	// every other region.
	HostClaims int

	// Push, when non-nil, additionally starts the hybrid scheme's delta
	// pusher: the agent samples locally every Push.Check and RDMA-Writes
	// a timestamped record into its slot on the front-end PushHost when
	// the load index moved by Push.Threshold. It pushes the agent's
	// NodeID and samples its Provider.
	Push *PusherConfig
}

// Agent is the live back-end of a monitoring scheme.
type Agent struct {
	cfg   Config
	verbs *tcpverbs.Agent

	mu    sync.Mutex
	mr    *tcpverbs.MR    // mutable: InvalidateMR drops and re-pins it
	mrSrc tcpverbs.Source // registration source, kept for re-pinning
	mrLen int             // registered region length (record or ring)
	buf   []byte          // refreshed encoding (async schemes)
	ring  *wire.HistoryRing
	seq   uint32

	cvault *claimVault // non-nil when this agent hosts the claim table

	pusher *Pusher // non-nil when cfg.Push is set

	loops *loops // the refresher or ring sampler, if the scheme runs one
}

// Where a sample is stored besides being returned (see Agent.sample).
const (
	toBuffer = 1 << iota // the async schemes' served buffer
	toRing               // the history ring, when one is published
)

// StartAgent launches the agent.
func StartAgent(cfg Config) (*Agent, error) {
	if cfg.Provider == nil {
		cfg.Provider = procfs.NewLinux("")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HistoryK < 0 {
		cfg.HistoryK = 0
	}
	if cfg.HistoryK > wire.MaxRingSlots {
		cfg.HistoryK = wire.MaxRingSlots
	}
	if !cfg.Scheme.UsesRDMA() {
		cfg.HistoryK = 0
	}
	v, err := tcpverbs.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	a := &Agent{cfg: cfg, verbs: v, loops: newLoops()}
	a.mrLen = wire.RecordSize
	if cfg.HistoryK > 0 {
		a.ring = wire.NewHistoryRing(cfg.HistoryK, cfg.NodeID)
		a.mrLen = a.ring.Size()
		a.sample(toRing) // prime: the ring is never empty once registered
	}
	// serveSample answers a socket request with a fresh sample, or with
	// nothing when sampling fails.
	serveSample := func([]byte) []byte {
		rec, err := a.sample(0)
		if err != nil {
			return nil
		}
		return rec.Encode()
	}

	switch cfg.Scheme {
	case core.SocketAsync, core.RDMAAsync:
		if _, err := a.sample(toBuffer | toRing); err != nil {
			v.Close()
			return nil, err
		}
		// Transient sampling errors keep the old record.
		a.loops.every(cfg.Interval, false, func() { a.sample(toBuffer | toRing) })
		// Under RDMA-Async this is the standby socket channel (see
		// core.Failover): it answers from the same refreshed buffer the
		// region exposes, so a probe failed over to it sees identical
		// staleness semantics.
		v.HandleCall(portProbe, func([]byte) []byte { return a.snapshotBuf() })
		if cfg.Scheme == core.RDMAAsync {
			a.mrSrc = a.snapshotBuf
			if a.ring != nil {
				// The refresher pushes into the ring too; the region
				// exposes the whole window.
				a.mrSrc = a.ringWindow
			}
		}
	case core.SocketSync:
		v.HandleCall(portProbe, serveSample)
	case core.RDMASync, core.ERDMASync:
		if a.ring != nil {
			// DMA-instant push: serving a read samples the machine into
			// the newest slot, so the sync freshness contract survives
			// the ring; the background sampler fills the window between
			// reads.
			a.loops.every(cfg.Interval, false, func() { a.sample(toRing) })
			a.mrSrc = func() []byte {
				a.sample(toRing)
				return a.ringWindow()
			}
		} else {
			a.mrSrc = func() []byte {
				rec, err := a.sample(0)
				if err != nil {
					return make([]byte, wire.RecordSize)
				}
				return rec.Encode()
			}
		}
		// Standby socket channel: samples per request like Socket-Sync,
		// sharing the sequence counter with the region source so
		// sequence numbers stay monotonic across transports.
		v.HandleCall(portProbe, serveSample)
	default:
		v.Close()
		return nil, fmt.Errorf("livemon: unknown scheme %v", cfg.Scheme)
	}
	if a.mrSrc != nil {
		a.mr = v.RegisterMR(a.mrSrc, a.mrLen)
	}

	if cfg.HostClaims > 0 {
		a.hostClaims(cfg.HostClaims)
	}

	if cfg.Push != nil {
		p, err := startPusher(*cfg.Push, cfg.NodeID, cfg.Provider)
		if err != nil {
			v.Close()
			return nil, err
		}
		a.pusher = p
	}

	// Control endpoint: scheme + rkey + ring-geometry discovery for
	// probes. The region key is read under the lock: InvalidateMR swaps
	// it concurrently. The reply grew from 5 to 9 bytes when history
	// rings arrived; probes predating the extension read the first 5 and
	// treat the region as a single record, which a ring-less agent still
	// serves, so the extension is backward compatible in both directions
	// (a new probe reads ringK = 0 from a short reply).
	v.HandleCall(portInfo, func([]byte) []byte {
		info := make([]byte, 9)
		info[0] = byte(cfg.Scheme)
		a.mu.Lock()
		if a.mr != nil {
			binary.BigEndian.PutUint32(info[1:], a.mr.Key())
		}
		a.mu.Unlock()
		binary.BigEndian.PutUint32(info[5:], uint32(cfg.HistoryK))
		return info
	})
	return a, nil
}

// RingK returns the agent's history-ring depth (0 when it publishes a
// single record).
func (a *Agent) RingK() int { return a.cfg.HistoryK }

// Addr returns the agent's listen address.
func (a *Agent) Addr() string { return a.verbs.Addr() }

// Scheme returns the agent's scheme.
func (a *Agent) Scheme() core.Scheme { return a.cfg.Scheme }

// Close stops the agent. Idempotent and safe for concurrent use;
// every caller observes the first teardown's error.
func (a *Agent) Close() error {
	return a.loops.close(func() error {
		if a.pusher != nil {
			a.pusher.Close()
		}
		return a.verbs.Close()
	})
}

// InvalidateMR models the remote key going stale (RDMA schemes only):
// the region is deregistered immediately — in-flight and subsequent
// reads with the old key fail — and, if repin > 0, re-registered with
// a fresh key after repin, the agent noticing and re-pinning the page.
// Probes recover the new key through their re-handshake path.
func (a *Agent) InvalidateMR(repin time.Duration) {
	a.mu.Lock()
	mr, src := a.mr, a.mrSrc
	a.mr = nil
	a.mu.Unlock()
	if mr == nil {
		return
	}
	a.verbs.Deregister(mr)
	if repin <= 0 || src == nil {
		return
	}
	time.AfterFunc(repin, func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.loops.stopped() || a.mr != nil {
			return
		}
		if a.ring != nil {
			// Same region, new pin: readers must not splice pre- and
			// post-invalidation windows into one trend.
			a.ring.BumpEpoch()
		}
		a.mr = a.verbs.RegisterMR(src, a.mrLen)
	})
}

// sample takes one snapshot of the machine, stamps it with the next
// sequence number — one counter for every transport, so sequence
// numbers stay monotonic across them — and returns it, after storing it
// where to says. A sampling error stores nothing, so the old buffer and
// window stay served. Stores happen under a.mu: the ring's seqlock
// protects remote readers from tearing, while local writers (the
// sampler's tick, a read-time push) serialize here.
func (a *Agent) sample(to int) (wire.LoadRecord, error) {
	s, err := a.cfg.Provider.Snapshot()
	if err != nil {
		return wire.LoadRecord{}, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	rec := s.Record(a.cfg.NodeID, a.seq)
	if to&toBuffer != 0 {
		a.buf = rec.Encode()
	}
	if to&toRing != 0 && a.ring != nil {
		a.ring.Push(&rec)
	}
	return rec, nil
}

// ringWindow returns an atomic copy of the ring region. The seqlock
// inside the ring protects a real NIC's DMA readers; here the TCP
// emulation's serve goroutine copies the region from the same address
// space as the sampler, so local consistency has to come from a.mu
// like every other shared buffer on this Agent.
func (a *Agent) ringWindow() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.ring.Bytes()...)
}

// snapshotBuf returns a copy of the shared buffer.
func (a *Agent) snapshotBuf() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.buf...)
}

// Probe is the live front-end half: it fetches load records from one
// agent using that agent's scheme semantics. It survives agent
// restarts: the underlying connection redials on transport failure
// (tcpverbs.RetryPolicy), and a failed fetch triggers a re-handshake
// that refreshes the scheme and region key — a restarted agent hands
// out a fresh rkey, so the old one must be thrown away.
//
// Every decision about a fetch's outcome — decoding, the torn-read
// bound, the transport breaker, the record cache, trend, health and
// counters — is the probe's core.ProbeState, the one the simulated
// core.Prober runs; the Probe adds the transport calls, the
// re-handshake, pool leasing and a wall clock. The state's time base is
// the time since dial.
type Probe struct {
	mu    sync.Mutex
	conn  *tcpverbs.Conn
	rkey  uint32
	start time.Time
	st    core.ProbeState

	// ringK is the agent's history-ring depth from the info handshake
	// (0: single-record region). Reads land in readBuf, and ring reads
	// decode into the state's view; both are reused across fetches, so a
	// warm probe loop allocates no payload buffers.
	ringK   int
	readBuf []byte

	// burstReqs/burstRes are FetchBurst's batch scratch (single-record
	// regions), reused across bursts.
	burstReqs []tcpverbs.BatchRead
	burstRes  []tcpverbs.BatchResult

	// pool/addr, when set (DialPooled), replace the owned conn: every
	// fetch leases a shared connection from the pool for the duration
	// of its locked sequence and returns it after. p.conn then holds
	// the leased conn only while a fetch is in flight.
	pool *ConnPool
	addr string

	// Rehandshakes counts successful post-failure re-handshakes.
	Rehandshakes uint64
}

// Dial connects to an agent and discovers its scheme and region key,
// using the transport's default operation timeout.
func Dial(addr string) (*Probe, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects with an explicit per-operation deadline
// (<= 0 takes the transport default).
func DialTimeout(addr string, opTimeout time.Duration) (*Probe, error) {
	c, err := tcpverbs.DialTimeout(addr, opTimeout)
	if err != nil {
		return nil, err
	}
	p := &Probe{conn: c, start: time.Now()}
	if err := p.handshake(); err != nil {
		c.Close()
		return nil, err
	}
	return p, nil
}

// DialPooled connects to an agent through a shared connection pool:
// the probe owns no connection — every fetch leases one from the pool
// (dialing under its budgets when none is cached) and returns it when
// the fetch completes. The initial handshake runs through the same
// leased path, so even discovery respects the pool's budgets.
func DialPooled(cp *ConnPool, addr string) (*Probe, error) {
	p := &Probe{pool: cp, addr: addr, start: time.Now()}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := leased(p, false, func() (struct{}, error) { return struct{}{}, p.handshake() }); err != nil {
		return nil, err
	}
	return p, nil
}

// leased runs one fetch sequence with p.mu held: a pooled probe leases
// a connection into p.conn for the step and hands it back with the
// step's error (an error recycles it, so the next fetch redials fresh);
// a probe that owns its connection just runs the step. With retry, a
// failed step runs again after a re-handshake (see rehandshakeRetry).
func leased[T any](p *Probe, retry bool, step func() (T, error)) (v T, err error) {
	if p.pool != nil {
		l, lerr := p.pool.Get(p.addr, true)
		if lerr != nil {
			return v, lerr
		}
		p.conn = l.Conn
		defer func() {
			p.conn = nil
			p.pool.Put(l, err)
		}()
	}
	if retry {
		return rehandshakeRetry(p, step)
	}
	return step()
}

// handshake queries the info endpoint and stores scheme + rkey.
// Caller need not hold p.mu for Dial; Fetch holds it.
func (p *Probe) handshake() error {
	info, err := p.conn.Call(portInfo, nil)
	if err != nil {
		return fmt.Errorf("livemon: info exchange: %w", err)
	}
	if len(info) < 5 {
		return fmt.Errorf("livemon: short info reply")
	}
	p.st.Scheme = core.Scheme(info[0])
	p.rkey = binary.BigEndian.Uint32(info[1:])
	// Ring-geometry extension (newer agents): absent on a 5-byte reply
	// from an agent predating history rings — a single-record region.
	p.ringK = 0
	if len(info) >= 9 {
		p.ringK = int(binary.BigEndian.Uint32(info[5:]))
		if p.ringK > wire.MaxRingSlots {
			return fmt.Errorf("livemon: agent advertises ring depth %d > max %d",
				p.ringK, wire.MaxRingSlots)
		}
	}
	return nil
}

// RingK returns the agent's advertised history-ring depth (0 when the
// region is a single record).
func (p *Probe) RingK() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ringK
}

// Scheme returns the remote agent's scheme.
func (p *Probe) Scheme() core.Scheme {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st.Scheme
}

// SetFailover arms the probe's transport breaker. It is a no-op under
// the socket schemes, which have nothing to fail over from.
func (p *Probe) SetFailover() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Scheme.UsesRDMA() {
		p.st.Failover = &core.Failover{}
	}
}

// SeedJitter makes the connection's retry-backoff jitter deterministic
// (see tcpverbs.Conn.SeedJitter); tests use it for reproducible runs.
// Pooled probes hold no connection of their own — there the pool's
// SeedJitter governs backoff determinism instead.
func (p *Probe) SeedJitter(seed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.SeedJitter(seed)
	}
}

// Fetch retrieves one load record. On failure it re-handshakes once
// (refreshing scheme and rkey from the — possibly restarted — agent)
// and retries; the original error is returned if recovery also fails.
func (p *Probe) Fetch() (wire.LoadRecord, error) {
	rec, _, err := p.FetchVia()
	return rec, err
}

// FetchVia retrieves one load record, reports which transport served
// it and applies the outcome to the probe's state. Without an armed
// breaker it reads over the scheme's own transport, with one
// re-handshake retry. With one armed:
//
//   - breaker armed: read over RDMA (re-handshake retry included); a
//     failure is a breaker step and the fetch falls back to the socket
//     standby for this cycle.
//   - breaker tripped: fetch over the socket standby; every fourth
//     cycle additionally retests the RDMA path in the background
//     (refreshing the rkey via re-handshake if the first attempt
//     fails — a re-pinned region hands out a fresh key), and two
//     consecutive re-arm successes fail the breaker back.
func (p *Probe) FetchVia() (wire.LoadRecord, core.Transport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fetch()
}

// fetch is FetchVia with p.mu held.
func (p *Probe) fetch() (wire.LoadRecord, core.Transport, error) {
	var rec wire.LoadRecord
	tr := core.TransportSocket
	if p.st.Scheme.UsesRDMA() {
		tr = core.TransportRDMA
	}
	_, err := leased(p, false, func() (_ struct{}, err error) {
		rec, tr, err = p.fetchLocked()
		return
	})
	if cached := p.st.Apply(sim.Time(time.Since(p.start)), &rec, err, tr); cached != nil {
		return *cached, tr, nil
	}
	return wire.LoadRecord{}, tr, err
}

// fetchLocked runs one fetch's transport calls, with any leased conn
// installed, as the probe state routes them.
func (p *Probe) fetchLocked() (wire.LoadRecord, core.Transport, error) {
	st := &p.st
	switch {
	case !st.Scheme.UsesRDMA():
		rec, err := rehandshakeRetry(p, p.socketLocked)
		return rec, core.TransportSocket, err
	case st.UseStandby():
		rec, err := p.socketLocked()
		if st.ReArmDue() {
			_, rerr := rehandshakeRetry(p, p.rdmaLocked)
			st.ReArmDone(rerr)
		}
		return rec, core.TransportSocket, err
	}
	rec, err := rehandshakeRetry(p, p.rdmaLocked)
	if st.FallBack(err) {
		if srec, serr := p.socketLocked(); serr == nil {
			return srec, core.TransportSocket, nil
		}
	}
	return rec, core.TransportRDMA, err
}

// rehandshakeRetry runs one locked fetch step (p.mu held, any leased
// conn installed) and, if it fails, re-handshakes once — a restarted
// or re-pinned agent hands out a fresh rkey, and possibly a different
// ring depth — and runs it again. The step's original error is
// returned if the re-handshake fails too.
func rehandshakeRetry[T any](p *Probe, step func() (T, error)) (T, error) {
	v, err := step()
	if err == nil {
		return v, nil
	}
	if herr := p.handshake(); herr != nil {
		var zero T
		return zero, err
	}
	p.Rehandshakes++
	return step()
}

// FetchBurst retrieves k load records in one pipelined batch over the
// RDMA path (see tcpverbs.Conn.RDMAReadBatchInto): k reads posted
// back-to-back, completions matched by sequence number, ~one round
// trip for the whole burst. Under RDMA-Sync each read samples the
// machine at its own service instant, so the burst yields k distinct
// fine-grained samples — useful for catching load spikes shorter than
// a poll interval. Fails over to nothing: burst fetches are an
// RDMA-scheme feature, and socket schemes return an error.
//
// On failure it re-handshakes once (a restarted or re-pinned agent
// hands out a fresh rkey) and retries the whole burst. Per-slot verb
// errors fail the burst: a partially valid burst is not worth
// reasoning about when retrying costs one round trip.
func (p *Probe) FetchBurst(k int) ([]wire.LoadRecord, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.st.Scheme.UsesRDMA() {
		return nil, fmt.Errorf("livemon: burst fetch requires an RDMA scheme, agent runs %v", p.st.Scheme)
	}
	if k <= 0 {
		k = 1
	}
	return leased(p, true, func() ([]wire.LoadRecord, error) { return p.burstLocked(k) })
}

func (p *Probe) burstLocked(k int) ([]wire.LoadRecord, error) {
	if p.ringK > 0 {
		// One ring read already carries up to ringK timestamped samples
		// — the history region subsumes the pipelined burst, one work
		// request instead of k. Newest first, like the batch variant's
		// freshest-last ordering never promised anyway.
		v, err := p.historyLocked()
		if err != nil {
			return nil, err
		}
		return append([]wire.LoadRecord(nil), v.Records[:min(v.Count, k)]...), nil
	}
	p.burstReqs = p.burstReqs[:0]
	for i := 0; i < k; i++ {
		p.burstReqs = append(p.burstReqs, tcpverbs.BatchRead{RKey: p.rkey, Length: wire.RecordSize})
	}
	results, err := p.conn.RDMAReadBatchInto(p.burstReqs, p.burstRes)
	if err != nil {
		return nil, err
	}
	p.burstRes = results
	recs := make([]wire.LoadRecord, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		rec, derr := wire.Decode(r.Data)
		if derr != nil {
			return nil, derr
		}
		recs[i] = rec
	}
	return recs, nil
}

// FetchHistory retrieves the agent's full history window in one
// one-sided read: up to RingK timestamped records, newest first, plus
// the region epoch (see wire.RingView). Like Fetch it re-handshakes
// once on failure — a restarted agent hands out a fresh rkey and
// possibly a different ring depth. Requires an agent publishing a
// history ring.
func (p *Probe) FetchHistory() (wire.RingView, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.st.Scheme.UsesRDMA() {
		return wire.RingView{}, fmt.Errorf("livemon: history fetch requires an RDMA scheme, agent runs %v", p.st.Scheme)
	}
	if p.ringK == 0 {
		return wire.RingView{}, fmt.Errorf("livemon: agent publishes no history ring")
	}
	v, err := leased(p, true, p.historyLocked)
	if err != nil {
		return wire.RingView{}, err
	}
	return *v, nil
}

// historyLocked is FetchHistory's step: a ring read, unless a
// re-handshake found the agent restarted without a ring.
func (p *Probe) historyLocked() (*wire.RingView, error) {
	if p.ringK == 0 {
		return nil, fmt.Errorf("livemon: restarted agent publishes no history ring")
	}
	if _, err := p.rdmaLocked(); err != nil {
		return nil, err
	}
	return p.st.Ring(), nil
}

// rdmaLocked reads the agent's region — the whole history ring when it
// publishes one — into the probe's scratch and decodes it, reading a
// torn ring snapshot again while the probe state allows.
func (p *Probe) rdmaLocked() (rec wire.LoadRecord, _ error) {
	ring := p.ringK > 0
	n := wire.RecordSize
	if ring {
		n = wire.RingSize(p.ringK)
	}
	for tries := 0; ; tries++ {
		raw, err := p.conn.RDMAReadInto(p.rkey, n, p.readBuf)
		if err != nil {
			return rec, err
		}
		p.readBuf = raw
		if err = p.st.DecodeRead(&rec, raw, ring); !p.st.RetryTorn(err, tries) {
			return rec, err
		}
	}
}

func (p *Probe) socketLocked() (wire.LoadRecord, error) {
	raw, err := p.conn.Call(portProbe, nil)
	if err != nil {
		return wire.LoadRecord{}, err
	}
	return wire.Decode(raw)
}

// Close tears down the probe connection. Pooled probes own no
// connection — their leases are per-fetch and the shared pool's Close
// releases the conns — so Close is a no-op for them. Idempotent.
func (p *Probe) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pool != nil || p.conn == nil {
		return nil
	}
	err := p.conn.Close()
	p.conn = nil
	return err
}
