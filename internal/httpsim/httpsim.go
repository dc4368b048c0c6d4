// Package httpsim models the cluster web server of the paper's
// application-level evaluation: a front-end dispatcher and per-node
// back-end servers with a fixed pool of worker processes.
//
// The model deliberately reduces HTTP to its queueing behaviour: a
// request carries a CPU service demand and an optional I/O (database)
// wait; workers execute demands under the node's scheduler, so
// response times inflate exactly when the dispatcher sends requests to
// a node whose CPUs are already saturated — which is what the paper's
// monitoring accuracy determines.
package httpsim

import (
	"fmt"

	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
)

// ServerPort is the back-end port serving requests.
const ServerPort = "http"

// DispatchPort is the front-end port clients send requests to.
const DispatchPort = "dispatch"

// Request is one client request as carried through the cluster.
type Request struct {
	ID     uint64
	Class  string   // query class (RUBiS query name, "zipf", ...)
	CPU    sim.Time // service demand on a back-end CPU
	IOWait sim.Time // database / disk wait (no CPU held)
	Size   int      // request size on the wire
	Resp   int      // response size on the wire

	Client int      // external endpoint to reply to
	Issued sim.Time // client-side issue timestamp
}

// Reply is the response returned to the client.
type Reply struct {
	ID      uint64
	Class   string
	Issued  sim.Time
	Backend int
	// Rejected marks a request turned away by admission control.
	Rejected bool
	// NotPrimary marks a request refused because the dispatcher does
	// not hold a valid claim epoch; the client should retry against
	// another front-end replica.
	NotPrimary bool
}

// ServerConfig configures a back-end server.
type ServerConfig struct {
	Workers  int   // worker process pool size (Apache-style)
	MemPerKB int64 // resident memory per in-flight request, KB
}

// ServerDefaults mirrors a small Apache prefork pool.
func ServerDefaults() ServerConfig {
	return ServerConfig{Workers: 8, MemPerKB: 2048}
}

// Server is a back-end web server: a pool of worker tasks consuming
// from the node's http port.
type Server struct {
	Cfg  ServerConfig
	node *simos.Node
	nic  *simnet.NIC
	port *simos.Port

	busy    int
	served  uint64
	stopped bool
	workers []*simos.Task
}

// StartServer launches the worker pool on node.
func StartServer(node *simos.Node, nic *simnet.NIC, cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = ServerDefaults().Workers
	}
	s := &Server{Cfg: cfg, node: node, nic: nic, port: node.Port(ServerPort)}
	// Client sessions are persistent HTTP connections: immune to
	// listen-backlog drops.
	nic.Fabric().MarkEstablished(ServerPort)
	// Connection load visible to the monitoring schemes: queued +
	// in-service requests.
	node.K.SetConnFn(func() int { return s.port.QueueLen() + s.busy })
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{s: s}
		w.serveFn, w.computedFn, w.finishFn, w.sentFn = w.serve, w.computed, w.finish, w.sent
		s.workers = append(s.workers, node.Spawn(fmt.Sprintf("httpd-%d", i), func(tk *simos.Task) {
			w.tk = tk
			tk.Recv(s.port, w.serveFn)
		}))
	}
	return s
}

// worker is one worker process of a server. The request in service is
// its state, and its stages are methods bound once, so serving a
// request allocates nothing but the boxed reply.
type worker struct {
	s   *Server
	tk  *simos.Task
	req Request

	serveFn                      func(simos.Message)
	computedFn, finishFn, sentFn func()
}

// serve takes one request off the port and burns its CPU demand.
func (w *worker) serve(m simos.Message) {
	s := w.s
	if s.stopped {
		w.tk.Exit()
		return
	}
	req, ok := m.Payload.(Request)
	if !ok {
		w.tk.Recv(s.port, w.serveFn)
		return
	}
	w.req = req
	s.busy++
	s.node.K.AddMemKB(s.Cfg.MemPerKB)
	w.tk.Compute(req.CPU, w.computedFn)
}

// computed waits out the request's I/O, if any.
func (w *worker) computed() {
	if w.req.IOWait > 0 {
		w.tk.Sleep(w.req.IOWait, w.finishFn)
		return
	}
	w.finish()
}

// finish sends the reply.
func (w *worker) finish() {
	req := &w.req
	reply := Reply{ID: req.ID, Class: req.Class, Issued: req.Issued, Backend: w.s.node.ID}
	w.s.nic.Send(w.tk, req.Client, "", req.Resp, reply, w.sentFn)
}

// sent releases the request and takes the next one.
func (w *worker) sent() {
	s := w.s
	w.req = Request{}
	s.busy--
	s.served++
	s.node.K.AddMemKB(-s.Cfg.MemPerKB)
	w.tk.Recv(s.port, w.serveFn)
}

// Served returns the number of completed requests.
func (s *Server) Served() uint64 { return s.served }

// Stop drains the worker pool (workers exit after their current
// request).
func (s *Server) Stop() { s.stopped = true }

// Dispatcher is the front-end request router: it receives client
// requests on the dispatch port, consults the balancing policy and
// forwards to a back-end.
type Dispatcher struct {
	node   *simos.Node
	nic    *simnet.NIC
	port   *simos.Port
	policy loadbalance.Policy

	// DecisionCost is the front-end CPU per routed request (parse +
	// policy evaluation).
	DecisionCost sim.Time

	// Fence, if set, is consulted per request before anything else: a
	// false return means this dispatcher does not hold a valid claim
	// epoch and must not route — the client gets a NotPrimary reply
	// and retries elsewhere. This is what makes a deposed or
	// frozen-then-thawed primary harmless (no split-brain routing).
	Fence func() bool

	// Admission, if set, is consulted per request; a false return
	// rejects the request immediately (the client gets a Rejected
	// reply instead of service).
	Admission func() bool

	// BackendFence, if set, is consulted after the policy picked a
	// back-end: a false return means this front-end does not validly
	// hold the claim covering that back-end's dispatch shard and must
	// not forward — the client gets a NotPrimary reply and retries
	// against another front-end. It also guards a policy returning -1
	// (no claimed candidates at all). This is the hard guarantee behind
	// active-active dispatch: the claim filter steers, the fence
	// enforces.
	BackendFence func(backend int) bool

	// OnRoute, if set, observes every routing decision just after the
	// policy picked a back-end (the chaos invariant checker audits
	// dispatch-to-crashed-node violations here).
	OnRoute func(backend int)

	Routed uint64
	// Fenced counts requests refused by the claim fence.
	Fenced uint64
	// ShardFenced counts requests refused by the per-backend claim
	// fence (picked back-end's shard not validly held here).
	ShardFenced uint64
	ByNode      map[int]uint64
	task        *simos.Task

	// The request in hand, between its receipt and its forward, and the
	// dispatcher task's stages, bound once.
	payload          any
	serveFn          func(simos.Message)
	decideFn, nextFn func()

	// Decayed per-backend forward counters: the dispatcher's local
	// connection-count signal (linear decay to zero over localTau),
	// dense by back-end id. total is their sum, taken in ascending id
	// order by whatever last changed a counter (decay, noteForward), so
	// LocalFrac is O(1) and bit-for-bit reproducible.
	localTau  sim.Time
	counts    []float64
	total     float64
	lastDecay sim.Time
}

// StartDispatcher launches the dispatcher task on the front-end node,
// serving the default dispatch port.
func StartDispatcher(node *simos.Node, nic *simnet.NIC, policy loadbalance.Policy) *Dispatcher {
	return StartDispatcherOn(node, nic, policy, DispatchPort)
}

// StartDispatcherOn launches a dispatcher on a specific port, so
// several services (each with its own dispatcher and policy) can share
// one front-end.
func StartDispatcherOn(node *simos.Node, nic *simnet.NIC, policy loadbalance.Policy, port string) *Dispatcher {
	d := &Dispatcher{
		node: node, nic: nic, policy: policy,
		port:         node.Port(port),
		DecisionCost: 15 * sim.Microsecond,
		ByNode:       make(map[int]uint64),
		localTau:     150 * sim.Millisecond,
	}
	nic.Fabric().MarkEstablished(port)
	d.serveFn, d.decideFn, d.nextFn = d.serve, d.decide, d.next
	d.task = node.Spawn("dispatcher", func(tk *simos.Task) {
		tk.Recv(d.port, d.serveFn)
	})
	return d
}

// serve takes one request off the dispatch port and pays the decision
// cost. The request stays boxed as the client sent it and is forwarded
// as it arrived.
func (d *Dispatcher) serve(m simos.Message) {
	if _, ok := m.Payload.(Request); !ok {
		d.next()
		return
	}
	d.payload = m.Payload
	d.task.Compute(d.DecisionCost, d.decideFn)
}

// decide fences, admits and routes the request in hand.
func (d *Dispatcher) decide() {
	payload := d.payload
	d.payload = nil
	req := payload.(Request)
	if d.Fence != nil && !d.Fence() {
		d.Fenced++
		d.refuse(&req, false)
		return
	}
	if d.Admission != nil && !d.Admission() {
		d.refuse(&req, true)
		return
	}
	b := d.policy.Pick()
	if b < 0 || (d.BackendFence != nil && !d.BackendFence(b)) {
		d.ShardFenced++
		d.refuse(&req, false)
		return
	}
	if d.OnRoute != nil {
		d.OnRoute(b)
	}
	d.Routed++
	d.ByNode[b]++
	d.noteForward(b)
	d.nic.Send(d.task, b, ServerPort, req.Size, payload, d.nextFn)
}

// refuse answers req without routing it: Rejected by admission
// control, NotPrimary by a claim fence.
func (d *Dispatcher) refuse(req *Request, rejected bool) {
	rep := Reply{ID: req.ID, Class: req.Class, Issued: req.Issued, Rejected: rejected, NotPrimary: !rejected}
	d.nic.Send(d.task, req.Client, "", 256, rep, d.nextFn)
}

// next waits for the following request.
func (d *Dispatcher) next() { d.task.Recv(d.port, d.serveFn) }

// decay ages the window to now: every counter loses dt/localTau of
// its value, reaching zero once a full localTau has passed.
func (d *Dispatcher) decay() {
	now := d.node.Eng.Now()
	dt := now - d.lastDecay
	if dt <= 0 {
		return
	}
	d.lastDecay = now
	f := 1 - float64(dt)/float64(d.localTau)
	if f < 0 {
		f = 0
	}
	total := 0.0
	for b := range d.counts {
		d.counts[b] *= f
		total += d.counts[b]
	}
	d.total = total
}

func (d *Dispatcher) noteForward(b int) {
	d.decay()
	if b >= len(d.counts) {
		d.counts = append(d.counts, make([]float64, b+1-len(d.counts))...)
	}
	d.counts[b]++
	total := 0.0
	for _, v := range d.counts {
		total += v
	}
	d.total = total
}

// LocalFrac returns backend b's recent fraction of forwarded requests
// (0..1; 1/N is the fair share). Returns 0 before any traffic and for a
// back-end never forwarded to. One call is O(1): policies ask once per
// candidate per pick.
func (d *Dispatcher) LocalFrac(b int) float64 {
	d.decay()
	if d.total < 1e-9 || uint(b) >= uint(len(d.counts)) {
		return 0
	}
	return d.counts[b] / d.total
}
