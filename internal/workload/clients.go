package workload

import (
	"math/rand"

	"rdmamon/internal/httpsim"
	"rdmamon/internal/metrics"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

// Generator produces the next request for a client. Implemented by
// the RUBiS mix and the Zipf trace.
type Generator func(rng *rand.Rand, id uint64, client int, now sim.Time) httpsim.Request

// MixGenerator adapts a query Mix with heavy-tailed per-request
// demands (see CostSigma).
func MixGenerator(m *Mix) Generator {
	return func(rng *rand.Rand, id uint64, client int, now sim.Time) httpsim.Request {
		return m.Pick(rng).RequestVar(rng, id, client, now)
	}
}

// ZipfGenerator adapts a ZipfTrace.
func ZipfGenerator(z *ZipfTrace) Generator {
	return func(rng *rand.Rand, id uint64, client int, now sim.Time) httpsim.Request {
		return z.Request(rng, id, client, now)
	}
}

// ClientPoolConfig configures a closed-loop client population (the
// paper drives RUBiS with 8 client nodes x 8 emulator threads).
type ClientPoolConfig struct {
	Clients   int
	ThinkMean sim.Time // exponential think time between a reply and the next request
	FrontEnd  int      // dispatcher node ID
	Port      string   // dispatch port (default httpsim.DispatchPort)
	ExtBase   int      // first external ID (successive clients count down)
	Gen       Generator
	Seed      int64

	// FrontEnds, if non-empty, lists every front-end replica the
	// clients know about (think: DNS round-robin over the VIPs). Each
	// request goes to the next replica not currently shunned; a
	// NotPrimary reply or a request timeout shuns that one replica for
	// a cooldown rather than advancing a pool-wide cursor — N clients
	// hitting one dead replica at once must not rotate the cursor N
	// steps (which, modulo the replica count, can land every retry
	// right back on the dead one). FrontEnd is ignored when set.
	FrontEnds []int
	// Timeout overrides RequestTimeout. Pools pointed at a replicated
	// front-end use a shorter patience so a dead primary is abandoned
	// on the client side quickly.
	Timeout sim.Time
}

// ClientPool is a closed-loop population of emulated clients living
// outside the simulated cluster. Each client has one outstanding
// request; response time is measured end to end at the client.
type ClientPool struct {
	Cfg ClientPoolConfig

	fab *simnet.Fabric
	rng *rand.Rand

	// All accumulates every response time in milliseconds; PerClass
	// and PerBackend break it down.
	All        metrics.Sample
	PerClass   map[string]*metrics.Sample
	PerBackend map[int]*metrics.Sample

	// Timeouts counts requests abandoned after RequestTimeout (the
	// user gave up; the client moves on). Abandoned requests do not
	// enter the response-time samples.
	Timeouts uint64

	// Rejected counts requests turned away by admission control; they
	// do not enter the response-time samples either.
	Rejected uint64

	// NotPrimary counts replies refused by a fenced (non-primary)
	// dispatcher; Retargets counts replicas shunned after a NotPrimary
	// or a timeout (each shun steers the affected client — and soon the
	// whole pool — to other front-ends).
	NotPrimary uint64
	Retargets  uint64

	Completed uint64
	nextID    uint64
	front     int        // round-robin cursor into Cfg.FrontEnds
	feDown    []sim.Time // per-replica: shunned until this instant
	paused    bool
	startedAt sim.Time
}

// client is one emulated user. It owns its request in flight, its
// patience timer and its stages, bound once, so a request's round trip
// allocates nothing on the client side but the boxed request.
type client struct {
	p        *ClientPool
	ext      int
	fl       inflightReq
	live     bool       // fl is awaiting its reply
	patience *sim.Timer // fires c.expire

	issueFn, thinkFn func()
}

type inflightReq struct {
	id      uint64
	req     httpsim.Request
	payload any // req, boxed once for the first send and every retry
	fe      int // index into Cfg.FrontEnds this attempt targeted (-1: fixed FrontEnd)
}

// RequestTimeout is how long a client waits before abandoning a
// request and issuing its next one.
const RequestTimeout = 10 * sim.Second

// notPrimaryBackoff is how long a client waits before retrying a
// request refused by a fenced dispatcher: during a takeover window no
// replica holds the primary claim, and hammering the fleet at wire rate would
// only add noise to the handoff.
const notPrimaryBackoff = 25 * sim.Millisecond

// frontEndCooldown is how long a replica that refused or ignored a
// request is shunned before clients try it again.
const frontEndCooldown = 500 * sim.Millisecond

// StartClients launches the pool on fab. Clients begin issuing
// immediately, desynchronized by one think time.
func StartClients(fab *simnet.Fabric, cfg ClientPoolConfig) *ClientPool {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.ThinkMean <= 0 {
		cfg.ThinkMean = 200 * sim.Millisecond
	}
	if cfg.ExtBase > simnet.ExternalBase {
		cfg.ExtBase = simnet.ExternalBase
	}
	if cfg.Port == "" {
		cfg.Port = httpsim.DispatchPort
	}
	p := &ClientPool{
		Cfg:        cfg,
		fab:        fab,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		PerClass:   make(map[string]*metrics.Sample),
		PerBackend: make(map[int]*metrics.Sample),
		startedAt:  fab.Eng.Now(),
		feDown:     make([]sim.Time, len(cfg.FrontEnds)),
	}
	for i := 0; i < cfg.Clients; i++ {
		c := &client{p: p, ext: cfg.ExtBase - i}
		c.patience = fab.Eng.NewTimer(c.expire)
		c.issueFn, c.thinkFn = c.issue, c.think
		fab.RegisterExternal(c.ext, c.onReply)
		// First request after one think time: staggers arrivals.
		c.think()
	}
	return p
}

func (p *ClientPool) thinkTime() sim.Time {
	d := p.rng.ExpFloat64() * float64(p.Cfg.ThinkMean)
	if d < float64(sim.Millisecond) {
		d = float64(sim.Millisecond)
	}
	return sim.Time(d)
}

// think schedules the client's next request one think time from now.
func (c *client) think() { c.p.fab.Eng.Post(c.p.thinkTime(), c.issueFn) }

// issue sends the client's next request and arms its patience.
func (c *client) issue() {
	p := c.p
	if p.paused {
		// Client waits out the pause, checking back periodically.
		p.fab.Eng.Post(200*sim.Millisecond, c.thinkFn)
		return
	}
	p.nextID++
	req := p.Cfg.Gen(p.rng, p.nextID, c.ext, p.fab.Eng.Now())
	c.fl = inflightReq{id: p.nextID, req: req, payload: req, fe: p.pickFront()}
	c.patience.Reset(p.patience())
	c.live = true
	p.fab.Inject(c.ext, p.target(c.fl.fe), p.Cfg.Port, req.Size, c.fl.payload)
}

// expire abandons a request its front-end never answered.
func (c *client) expire() {
	p := c.p
	if !c.live {
		return
	}
	c.live = false
	p.Timeouts++
	// A silent front-end may be dead: shun it and move on.
	p.shun(c.fl.fe)
	c.think()
}

func (p *ClientPool) patience() sim.Time {
	if p.Cfg.Timeout > 0 {
		return p.Cfg.Timeout
	}
	return RequestTimeout
}

// pickFront advances the round-robin cursor to the next replica not
// currently shunned and returns its index (-1 when the pool targets a
// single fixed FrontEnd). With every replica shunned it degrades to
// plain round-robin — somebody may have recovered.
func (p *ClientPool) pickFront() int {
	n := len(p.Cfg.FrontEnds)
	if n == 0 {
		return -1
	}
	now := p.fab.Eng.Now()
	for i := 0; i < n; i++ {
		idx := p.front % n
		p.front++
		if p.feDown[idx] <= now {
			return idx
		}
	}
	idx := p.front % n
	p.front++
	return idx
}

// target maps a pickFront index to a node ID.
func (p *ClientPool) target(fe int) int {
	if fe < 0 {
		return p.Cfg.FrontEnd
	}
	return p.Cfg.FrontEnds[fe]
}

// shun takes one replica out of the rotation for frontEndCooldown.
func (p *ClientPool) shun(fe int) {
	if fe < 0 || len(p.Cfg.FrontEnds) < 2 {
		return
	}
	p.feDown[fe] = p.fab.Eng.Now() + frontEndCooldown
	p.Retargets++
}

func (c *client) onReply(m simos.Message) {
	p := c.p
	rep, ok := m.Payload.(httpsim.Reply)
	if !ok {
		return
	}
	fl := &c.fl
	if !c.live || fl.id != rep.ID {
		return // reply to an abandoned request
	}
	if rep.NotPrimary {
		// The dispatcher's fence refused us (no primary claim, or no claim on
		// the shard it picked). Shun that replica and retry the same
		// request against the next active one after a short backoff;
		// the original patience timer keeps the retries bounded.
		p.NotPrimary++
		p.shun(fl.fe)
		id := fl.id
		p.fab.Eng.Post(notPrimaryBackoff, func() {
			if !c.live || fl.id != id {
				return
			}
			fl.fe = p.pickFront()
			p.fab.Inject(c.ext, p.target(fl.fe), p.Cfg.Port, fl.req.Size, fl.payload)
		})
		return
	}
	c.live = false
	c.patience.Stop()
	if rep.Rejected {
		p.Rejected++
		c.think()
		return
	}
	rt := float64(p.fab.Eng.Now()-rep.Issued) / float64(sim.Millisecond)
	p.All.Add(rt)
	cs := p.PerClass[rep.Class]
	if cs == nil {
		cs = &metrics.Sample{}
		p.PerClass[rep.Class] = cs
	}
	cs.Add(rt)
	bs := p.PerBackend[rep.Backend]
	if bs == nil {
		bs = &metrics.Sample{}
		p.PerBackend[rep.Backend] = bs
	}
	bs.Add(rt)
	p.Completed++
	// Closed loop: reply releases this client for its next request.
	c.think()
}

// Pause suspends request issue; clients stay alive and resume when
// Resume is called (used for phased workloads).
func (p *ClientPool) Pause() { p.paused = true }

// Resume lifts a Pause.
func (p *ClientPool) Resume() { p.paused = false }

// ResetStats clears accumulated samples and counters (e.g. after a
// warm-up period) without disturbing the closed loop.
func (p *ClientPool) ResetStats() {
	p.All = metrics.Sample{}
	p.PerClass = make(map[string]*metrics.Sample)
	p.PerBackend = make(map[int]*metrics.Sample)
	p.Completed = 0
	p.startedAt = p.fab.Eng.Now()
}

// Throughput returns completed requests per second since start.
func (p *ClientPool) Throughput() float64 {
	el := p.fab.Eng.Now() - p.startedAt
	if el <= 0 {
		return 0
	}
	return float64(p.Completed) / el.Seconds()
}
