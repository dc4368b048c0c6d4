// Package cluster wires the full system of the paper's evaluation: a
// front-end node running the monitoring probes and the request
// dispatcher, and N back-end nodes each running a web-server worker
// pool and the back-end half of the chosen monitoring scheme.
package cluster

import (
	"fmt"
	"math/rand"

	"rdmamon/internal/admission"
	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/faults"
	"rdmamon/internal/httpsim"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
	"rdmamon/internal/workload"
)

// PolicyName selects the dispatcher policy.
type PolicyName string

// Available dispatcher policies.
const (
	// PolicyWebSphere distributes proportionally to monitored-load
	// weights (IBM WebSphere / Network Dispatcher style, the paper's
	// algorithm). Default.
	PolicyWebSphere PolicyName = "websphere"
	// PolicyLeastLoad sends each request to the backend with the
	// smallest weighted index (strict argmin).
	PolicyLeastLoad  PolicyName = "least-load"
	PolicyRoundRobin PolicyName = "round-robin"
	PolicyRandom     PolicyName = "random"
)

// backendWorkers is a back-end web server's worker pool unless its
// BackendSpec overrides it.
const backendWorkers = 8

// Config describes a cluster to build.
type Config struct {
	Backends int
	Scheme   core.Scheme
	Poll     sim.Time // monitoring poll/refresh interval T
	Policy   PolicyName
	Seed     int64

	// NoServers skips the web-server pool (micro-benchmarks).
	NoServers bool

	// LocalWeight blends the dispatcher's own connection-count signal
	// into the least-load index (see loadbalance.WeightedLeastLoad).
	// Negative disables; zero takes the default of 0.1.
	LocalWeight float64

	// Gamma sharpens the WebSphere policy's load->weight mapping
	// (loadbalance.WeightedProportional). Zero takes that policy's
	// default.
	Gamma float64

	// ProbeTimeout bounds each monitoring probe (see core.Prober). Zero
	// keeps the seed behaviour (no deadline); fault experiments set it
	// so a dead back-end cannot stall the sequential probe cycle.
	ProbeTimeout sim.Time

	// MonitorShards splits the monitoring process into S shard tasks,
	// each sweeping its own slice of back-ends; MonitorBatch caps how
	// many one-sided reads one doorbell batch posts (see
	// core.MonitorConfig). Zero values keep the paper's sequential
	// single-task monitor.
	MonitorShards int
	MonitorBatch  int

	// MRRepin is how long a back-end agent takes to notice an
	// invalidated memory region and re-register it (fault plans with
	// MRInvalidations). Zero takes 100ms.
	MRRepin sim.Time

	// HistoryK publishes a K-slot history ring on every RDMA-Sync-family
	// agent instead of the single-record region (see
	// core.AgentConfig.HistoryK): one probe read fetches the last K
	// timestamped samples and feeds each prober's trend tracker. Zero
	// keeps single-record regions bit-for-bit; socket schemes ignore it.
	HistoryK int

	// AgentInterval overrides the back-end agents' sample/refresh
	// interval (default Poll). With a history ring this is the window's
	// sample granularity: agents sampling at AgentInterval while the
	// monitor polls at Poll = K x AgentInterval cover the same timeline
	// with 1/K of the probe work requests.
	AgentInterval sim.Time

	// TrendHorizon turns on trend-aware dispatch under PolicyLeastLoad:
	// back-ends are ranked on their load index projected TrendHorizon
	// ahead along the monitor's observed slope, clamped so a stale or
	// wild trend can shift a rank by at most loadbalance.DefaultTrendClamp
	// (see loadbalance.WeightedLeastLoad). Zero keeps level-only
	// ranking. Most useful with HistoryK > 0, which primes slopes from
	// one read; point probes prime them over consecutive sweeps.
	TrendHorizon sim.Time

	// Failover arms a per-backend transport breaker on the
	// RDMA schemes (see core.Failover): agents additionally serve the
	// socket standby port, and probes fail over to it when the RDMA
	// path breaks, failing back after it recovers. Ignored under the
	// socket schemes, which have nothing to fail over from.
	Failover bool

	// Hybrid, if non-nil, turns on the hybrid push/pull scheme on the
	// RDMA schemes (see core.HybridConfig): every back-end runs a
	// change-threshold delta pusher writing into the front-end monitor's
	// aggregation region, and the monitor adapts each back-end's poll
	// period to its change rate. Ignored under the socket schemes.
	Hybrid *core.HybridConfig

	// Pool, if non-nil, routes every monitor's one-sided probes
	// through a connection-lifecycle pool (see internal/connpool):
	// per-probe conn acquisition under explicit budgets (max conns,
	// dials/s, fd budget), epoch-fenced reuse, per-backend dial
	// breakers, quiet-first shedding. nil keeps the seed behaviour —
	// probes route by (target, rkey) with no connection accounting —
	// bit-for-bit. RDMA schemes only.
	Pool *connpool.Config

	// Replicas is the number of front-end replicas. Zero or one keeps
	// the seed topology: a single front-end on node 0, no arbitration.
	// With R > 1 the front-end is replicated for availability: replica
	// 0 stays on node 0, replicas 1..R-1 run on nodes
	// Backends+1..Backends+R-1, and a witness node (Backends+R) hosts
	// the claim table (see core.Claim). Every replica shadow-probes all
	// back-ends — free under the RDMA schemes — but by default the table
	// has one shard every replica bids on as home: only its holder (the
	// primary) dispatches; the rest answer NotPrimary.
	Replicas int

	// ActiveActive (Replicas > 1) folds the back-end space onto one
	// claim word per back-end with a home partition, and EVERY replica
	// dispatches concurrently, each only to back-ends whose shard claim
	// it validly holds. A replica with no claims answers NotPrimary
	// exactly like a deposed primary.
	ActiveActive bool

	// BackendSpecs, when non-empty, makes the back-end fleet
	// heterogeneous: entry i overrides back-end i+1's hardware and
	// agent knobs (zero fields inherit Node / backendWorkers / the cluster
	// agent interval). Shorter-than-Backends slices leave the tail at
	// the defaults. The overrides survive crash/restart fault cycles —
	// a rebooted slow node comes back slow.
	BackendSpecs []BackendSpec
}

// BackendSpec is one back-end's hardware/agent overrides for a
// heterogeneous fleet (see Config.BackendSpecs).
type BackendSpec struct {
	// Template is a provenance label (which fleet template produced
	// this back-end); reports group dispatch shares by it.
	Template string
	// CPUs overrides simos.Config.NumCPU for this node.
	CPUs int
	// NICLatency adds extra one-way fabric latency to every operation
	// touching this node (simnet.Fabric.SetNodeLatency).
	NICLatency sim.Time
	// AgentInterval overrides the node's monitoring-agent refresh
	// interval (Config.AgentInterval, then Poll).
	AgentInterval sim.Time
	// Workers overrides the web-server worker pool size.
	Workers int
}

// Replica is one front-end instance: its own monitor (warm load view),
// policy, dispatcher (fenced by its claims) and claim manager.
type Replica struct {
	Index int // 0-based; claim owner ID is Index+1
	Node  *simos.Node
	NIC   *simnet.NIC

	Monitor    *core.Monitor
	Policy     loadbalance.Policy
	Dispatcher *httpsim.Dispatcher
	ClaimMgr   *core.ClaimManager

	view *loadbalance.View // what Policy filters with; claims arm its Claimed
	down bool
}

// Down reports whether the replica is currently crashed.
func (r *Replica) Down() bool { return r.down }

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Cfg Config

	Eng  *sim.Engine
	Fab  *simnet.Fabric
	Rand *rand.Rand

	Front *simos.Node
	FNIC  *simnet.NIC

	Backends []*simos.Node
	BNICs    []*simnet.NIC
	Servers  []*httpsim.Server

	Agents     []*core.Agent
	Monitor    *core.Monitor
	Policy     loadbalance.Policy
	Dispatcher *httpsim.Dispatcher
	view       *loadbalance.View // the primary's; admission reads it

	// Pushers are the back-end delta pushers of the hybrid scheme
	// (Cfg.Hybrid on an RDMA scheme), indexed like Backends. They write
	// into the primary front-end's aggregation region, resolving the
	// slot key per push so monitor replacement and slot re-pinning are
	// survived transparently.
	Pushers []*core.DeltaPusher

	// Replicated front-end (Cfg.Replicas > 1). FrontEnds[0] aliases
	// Front/Monitor/Policy/Dispatcher; Witness hosts the claim vault.
	FrontEnds  []*Replica
	Witness    *simos.Node
	WitnessNIC *simnet.NIC
	ClaimVault *core.ClaimVault
	// Claim is the claim table's size and timing, derived from the
	// topology and Poll.
	Claim core.ClaimConfig

	// OnReplicaRestart, if set, runs after a crashed front-end replica
	// is rebooted with fresh monitor/dispatcher/claim instances, so
	// observers (experiment checkers, exporters) can re-install their
	// hooks on the new objects.
	OnReplicaRestart func(r *Replica)

	extCursor     int
	retiredServed uint64 // served counts of servers replaced after a crash
}

// New builds a cluster. Node 0 is the front-end; back-ends are 1..N.
func New(cfg Config) *Cluster {
	if cfg.Backends <= 0 {
		cfg.Backends = 8
	}
	if cfg.Poll <= 0 {
		cfg.Poll = core.DefaultInterval
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyWebSphere
	}
	if cfg.Failover && cfg.ProbeTimeout <= 0 {
		// Socket fallback probing needs a deadline — without one a probe
		// against a crashed report thread would stall the cycle forever.
		cfg.ProbeTimeout = cfg.Poll
	}
	if cfg.Hybrid != nil {
		// Normalise once so the monitor's controller and every pusher
		// share the same resolved thresholds and periods.
		h := cfg.Hybrid.WithDefaults(cfg.Poll)
		cfg.Hybrid = &h
	}
	c := &Cluster{Cfg: cfg, extCursor: simnet.ExternalBase}
	if cfg.Replicas > 1 {
		// HA is a one-shard table; active-active takes one shard per
		// back-end. Resolved once so vault, managers and fences agree
		// on the table size.
		shards := 1
		if cfg.ActiveActive {
			shards = cfg.Backends
		}
		c.Claim = core.ClaimConfig{Shards: shards}.WithDefaults(cfg.Poll)
	}
	c.Eng = sim.NewEngine(cfg.Seed)
	c.Rand = rand.New(rand.NewSource(cfg.Seed + 1))
	c.Fab = simnet.NewFabric(c.Eng, simnet.Config{})

	c.Front = simos.NewNode(c.Eng, 0, simos.Config{})
	c.FNIC = c.Fab.Attach(c.Front)

	for i := 1; i <= cfg.Backends; i++ {
		n := simos.NewNode(c.Eng, i, c.backendNodeCfg(i-1))
		nic := c.Fab.Attach(n)
		if lat := c.spec(i - 1).NICLatency; lat > 0 {
			c.Fab.SetNodeLatency(i, lat)
		}
		c.Backends = append(c.Backends, n)
		c.BNICs = append(c.BNICs, nic)
		if !cfg.NoServers {
			srv := httpsim.StartServer(n, nic, c.serverConfig(i-1))
			c.Servers = append(c.Servers, srv)
		}
		c.Agents = append(c.Agents, core.StartAgent(n, nic, c.agentConfig(i-1)))
	}
	c.Monitor = core.StartMonitorCfg(c.Front, c.FNIC, c.Agents, cfg.Poll, c.monitorConfig())
	c.Monitor.SetProbeTimeout(cfg.ProbeTimeout)
	if cfg.Failover && cfg.Scheme.UsesRDMA() {
		c.Monitor.ArmFailover()
	}
	if c.Monitor.Sink != nil {
		c.Pushers = make([]*core.DeltaPusher, cfg.Backends)
		for i := range c.Backends {
			c.startPusher(i)
		}
	}
	c.Policy, c.view, c.Dispatcher = c.frontEnd(c.Front, c.FNIC, c.Monitor, c.Rand)
	if cfg.Replicas > 1 {
		c.buildHA()
	}
	return c
}

// startPusher launches the hybrid delta pusher on back-end index i.
// The slot-key closure resolves through the *current* primary monitor
// on every push, so a replaced monitor or re-pinned slot is picked up
// without restarting the pusher.
func (c *Cluster) startPusher(i int) {
	b := i + 1
	c.Pushers[i] = core.StartDeltaPusher(c.Backends[i], c.BNICs[i], c.Front.ID,
		func() uint32 {
			if c.Monitor.Sink == nil {
				return 0
			}
			return c.Monitor.Sink.SlotKey(b)
		}, *c.Cfg.Hybrid)
}

// buildHA replicates the front-end: standby replica nodes, the
// witness with its claim vault, and a claim manager per replica
// fencing every dispatcher. Replica 0 wraps the objects New already
// built on node 0.
func (c *Cluster) buildHA() {
	wid := c.Cfg.Backends + c.Cfg.Replicas
	c.Witness = simos.NewNode(c.Eng, wid, simos.Config{})
	c.WitnessNIC = c.Fab.Attach(c.Witness)
	c.ClaimVault = core.NewClaimVault(c.WitnessNIC, c.Claim.Shards)

	r0 := &Replica{Index: 0, Node: c.Front, NIC: c.FNIC,
		Monitor: c.Monitor, Policy: c.Policy, Dispatcher: c.Dispatcher, view: c.view}
	c.FrontEnds = []*Replica{r0}
	for i := 1; i < c.Cfg.Replicas; i++ {
		node := simos.NewNode(c.Eng, c.Cfg.Backends+i, simos.Config{})
		r := &Replica{Index: i, Node: node, NIC: c.Fab.Attach(node)}
		c.startReplica(r)
		c.FrontEnds = append(c.FrontEnds, r)
	}
	for _, r := range c.FrontEnds {
		c.armClaims(r)
	}
}

// replicaRand is the policy RNG for a replica: replica 0 keeps the
// cluster RNG (so single-front behaviour is untouched), standbys get
// their own deterministic streams.
func (c *Cluster) replicaRand(i int) *rand.Rand {
	if i == 0 {
		return c.Rand
	}
	return rand.New(rand.NewSource(c.Cfg.Seed + 1000 + int64(i)))
}

// startReplica builds a replica's monitor, policy and dispatcher
// (used for standbys at construction and for any replica after a
// restart).
func (c *Cluster) startReplica(r *Replica) {
	r.Monitor = core.StartMonitorCfg(r.Node, r.NIC, c.Agents, c.Cfg.Poll, c.monitorConfig())
	r.Monitor.SetProbeTimeout(c.Cfg.ProbeTimeout)
	if c.Cfg.Failover && c.Cfg.Scheme.UsesRDMA() {
		r.Monitor.ArmFailover()
	}
	r.Policy, r.view, r.Dispatcher = c.frontEnd(r.Node, r.NIC, r.Monitor, c.replicaRand(r.Index))
}

// ShardOf maps a back-end node ID onto its claim shard.
func (c *Cluster) ShardOf(backend int) int {
	return (backend - 1) % c.Claim.Shards
}

// armClaims starts a replica's claim manager and fences its dispatcher
// on claim validity. Under HA every replica is home to the one shard
// and the whole dispatcher is fenced before the pick. Active-active
// fences per back-end: the policy's Claimed filter steers picks onto
// held shards, the dispatcher's BackendFence is the hard guarantee no
// request leaves for an unclaimed one.
func (c *Cluster) armClaims(r *Replica) {
	owners := 0 // HA: every replica is home
	if c.Cfg.ActiveActive {
		owners = c.Cfg.Replicas
	}
	r.ClaimMgr = core.StartClaimManager(r.Node, r.NIC, c.Witness.ID,
		c.ClaimVault.WordKeys(),
		uint16(r.Index+1), owners, c.Claim)
	mgr := r.ClaimMgr
	eng := c.Eng
	if c.Cfg.ActiveActive {
		claimed := func(b int) bool { return mgr.Valid(c.ShardOf(b), eng.Now()) }
		if r.Dispatcher != nil {
			r.Dispatcher.BackendFence = claimed
		}
		r.view.Claimed = claimed
	} else if r.Dispatcher != nil {
		r.Dispatcher.Fence = func() bool { return mgr.Valid(0, eng.Now()) }
	}
	// The adaptive poll controller only decays on a replica holding
	// claims: one holding nothing (a standby) keeps the fast sweep so
	// its load view is warm the instant it seizes a claim.
	r.Monitor.LeaseValid = func() bool { return mgr.HeldValid(eng.Now()) > 0 }
}

// restartReplica reboots a crashed front-end replica: fresh monitor
// (it re-warms its load view probe by probe), fresh fenced dispatcher,
// fresh claim manager starting with nothing held.
func (c *Cluster) restartReplica(r *Replica) {
	c.startReplica(r)
	c.armClaims(r)
	r.down = false
	if r.Index == 0 {
		c.Monitor, c.Policy, c.view, c.Dispatcher = r.Monitor, r.Policy, r.view, r.Dispatcher
	}
	if c.OnReplicaRestart != nil {
		c.OnReplicaRestart(r)
	}
}

// monitors lists every live monitor: the primary plus any standby
// replicas' (deduplicated — FrontEnds[0].Monitor aliases Monitor).
func (c *Cluster) monitors() []*core.Monitor {
	ms := []*core.Monitor{c.Monitor}
	for _, r := range c.FrontEnds {
		if r.Monitor != c.Monitor {
			ms = append(ms, r.Monitor)
		}
	}
	return ms
}

// replicaByNode maps a node ID to its front-end replica, if any.
func (c *Cluster) replicaByNode(node int) *Replica {
	for _, r := range c.FrontEnds {
		if r.Node.ID == node {
			return r
		}
	}
	return nil
}

// FrontEndIDs lists the front-end node IDs clients can target.
func (c *Cluster) FrontEndIDs() []int {
	if len(c.FrontEnds) == 0 {
		return []int{c.Front.ID}
	}
	ids := make([]int, len(c.FrontEnds))
	for i, r := range c.FrontEnds {
		ids[i] = r.Node.ID
	}
	return ids
}

// monitorConfig maps the cluster's sharding/batching knobs onto the
// probe engine's config (zero values = the sequential monitor).
func (c *Cluster) monitorConfig() core.MonitorConfig {
	return core.MonitorConfig{
		Shards: c.Cfg.MonitorShards,
		Batch:  c.Cfg.MonitorBatch,
		Hybrid: c.Cfg.Hybrid,
		Pool:   c.Cfg.Pool,
	}
}

// spec returns back-end index i's heterogeneity overrides; the zero
// value (homogeneous fleet, or a slice shorter than Backends) leaves
// every knob at the cluster default.
func (c *Cluster) spec(i int) BackendSpec {
	if i >= 0 && i < len(c.Cfg.BackendSpecs) {
		return c.Cfg.BackendSpecs[i]
	}
	return BackendSpec{}
}

// backendNodeCfg is back-end index i's simos node configuration.
func (c *Cluster) backendNodeCfg(i int) simos.Config {
	var nc simos.Config
	if s := c.spec(i); s.CPUs > 0 {
		nc.NumCPU = s.CPUs
	}
	return nc
}

// serverConfig is back-end index i's web-server configuration, shared
// by New and the restart path so a rebooted slow node comes back with
// its small worker pool, not the fleet default.
func (c *Cluster) serverConfig(i int) httpsim.ServerConfig {
	w := backendWorkers
	if s := c.spec(i); s.Workers > 0 {
		w = s.Workers
	}
	return httpsim.ServerConfig{Workers: w, MemPerKB: 2048}
}

// agentConfig is back-end index i's agent configuration, shared by New
// and the fault injector's restart path so a rebooted agent comes back
// with the same interval and standby-channel arrangement it died with.
func (c *Cluster) agentConfig(i int) core.AgentConfig {
	interval := c.Cfg.Poll
	if c.Cfg.AgentInterval > 0 {
		interval = c.Cfg.AgentInterval
	}
	if s := c.spec(i); s.AgentInterval > 0 {
		interval = s.AgentInterval
	}
	return core.AgentConfig{
		Scheme:        c.Cfg.Scheme,
		Interval:      interval,
		HistoryK:      c.Cfg.HistoryK,
		StandbySocket: c.Cfg.Failover && c.Cfg.Scheme.UsesRDMA(),
	}
}

// frontEnd builds one front end's dispatch path against mon (each
// replica routes from its own warm load view): the View of its
// back-ends, the policy over it and, unless NoServers, the dispatcher,
// whose recent-traffic signal the View blends in. Every policy gets a
// View so admission control has one to read; only the weighted
// policies embed theirs.
func (c *Cluster) frontEnd(node *simos.Node, nic *simnet.NIC, mon *core.Monitor, rng *rand.Rand) (loadbalance.Policy, *loadbalance.View, *httpsim.Dispatcher) {
	ids := c.BackendIDs()
	lw := c.Cfg.LocalWeight
	switch {
	case lw < 0:
		lw = 0
	case lw == 0:
		lw = 0.1
	}
	view := &loadbalance.View{
		Backends:    ids,
		Weights:     core.WeightsFor(c.Cfg.Scheme),
		Source:      recordSource(mon),
		Rng:         rng,
		LocalWeight: lw,
		// Quarantined back-ends (3 consecutive failed probes) get zero
		// traffic until they pass probation.
		Exclude: func(b int) bool { return !mon.Health(b).Eligible() },
	}
	if c.Cfg.Failover {
		// Back-ends monitored over the socket standby stay in the
		// dispatch set but carry a small index handicap.
		view.Degraded = func(b int) bool { return mon.Health(b) == core.Degraded }
	}
	var pol loadbalance.Policy
	switch c.Cfg.Policy {
	case PolicyRoundRobin:
		pol = &loadbalance.RoundRobin{Backends: ids}
	case PolicyRandom:
		pol = &loadbalance.Random{Backends: ids, Rng: rng}
	case PolicyLeastLoad:
		wll := &loadbalance.WeightedLeastLoad{View: *view, Updates: mon.Updates}
		if c.Cfg.TrendHorizon > 0 {
			wll.Slope = mon.Slope
			wll.TrendHorizon = c.Cfg.TrendHorizon
		}
		pol, view = wll, &wll.View
	case PolicyWebSphere:
		eng := c.Eng
		wp := &loadbalance.WeightedProportional{
			View:       *view,
			Gamma:      c.Cfg.Gamma,
			StaleAfter: 250 * sim.Millisecond,
			Aged: func(b int) (wire.LoadRecord, sim.Time, bool) {
				if r, at, ok := mon.Latest(b); ok {
					return *r, eng.Now() - at, true
				}
				return wire.LoadRecord{}, 0, false
			},
		}
		pol, view = wp, &wp.View
	default:
		panic(fmt.Sprintf("cluster: unknown policy %q", c.Cfg.Policy))
	}
	if c.Cfg.NoServers {
		return pol, view, nil
	}
	d := httpsim.StartDispatcher(node, nic, pol)
	view.LocalFrac = d.LocalFrac
	return pol, view, d
}

// recordSource is the record input the weighted policies and admission
// control read mon through: the cached record is copied once, straight
// into the caller's result, and scored in place (core.Weights.IndexOf).
// Least-load reads it only after mon.Updates moved for that back-end.
func recordSource(mon *core.Monitor) loadbalance.LoadSource {
	return func(b int) (wire.LoadRecord, bool) {
		if r, _, ok := mon.Latest(b); ok {
			return *r, true
		}
		return wire.LoadRecord{}, false
	}
}

// BackendIDs lists the back-end node IDs (1..N).
func (c *Cluster) BackendIDs() []int {
	ids := make([]int, len(c.Backends))
	for i := range c.Backends {
		ids[i] = i + 1
	}
	return ids
}

// Run advances the simulation by d.
func (c *Cluster) Run(d sim.Time) { c.Eng.RunFor(d) }

// allocExt reserves n external client IDs and returns the base.
func (c *Cluster) allocExt(n int) int {
	base := c.extCursor
	c.extCursor -= n
	return base
}

// poolConfig builds the common client-pool config; with a replicated
// front-end clients know every replica and use a short patience so a
// dead primary is abandoned quickly.
func (c *Cluster) poolConfig(clients int, think sim.Time, gen workload.Generator, seed int64) workload.ClientPoolConfig {
	cfg := workload.ClientPoolConfig{
		Clients:   clients,
		ThinkMean: think,
		FrontEnd:  c.Front.ID,
		ExtBase:   c.allocExt(clients),
		Gen:       gen,
		Seed:      seed,
	}
	if len(c.FrontEnds) > 1 {
		cfg.FrontEnds = c.FrontEndIDs()
		cfg.Timeout = 2 * sim.Second
	}
	return cfg
}

// StartRUBiS attaches a closed-loop RUBiS client population.
func (c *Cluster) StartRUBiS(clients int, think sim.Time, seed int64) *workload.ClientPool {
	mix := workload.NewMix(workload.RUBiSMix())
	return workload.StartClients(c.Fab, c.poolConfig(clients, think, workload.MixGenerator(mix), seed))
}

// StartPool attaches a closed-loop client population driving a custom
// request generator (the active-active experiment uses a light,
// dispatch-bound request class no canned mix provides).
func (c *Cluster) StartPool(clients int, think sim.Time, gen workload.Generator, seed int64) *workload.ClientPool {
	return workload.StartClients(c.Fab, c.poolConfig(clients, think, gen, seed))
}

// StartZipf attaches a closed-loop Zipf-trace client population.
func (c *Cluster) StartZipf(z *workload.ZipfTrace, clients int, think sim.Time, seed int64) *workload.ClientPool {
	return workload.StartClients(c.Fab, c.poolConfig(clients, think, workload.ZipfGenerator(z), seed))
}

// StartFlashCrowds attaches an open-loop RUBiS flash-crowd generator
// (bursts of size minSize..maxSize every ~every).
func (c *Cluster) StartFlashCrowds(every sim.Time, minSize, maxSize int, seed int64) *workload.FlashCrowd {
	mix := workload.NewMix(workload.RUBiSMix())
	return workload.StartFlashCrowd(c.Fab, workload.FlashCrowdConfig{
		FrontEnd: c.Front.ID,
		ExtID:    c.allocExt(1),
		Every:    every,
		MinSize:  minSize,
		MaxSize:  maxSize,
		Gen:      workload.MixGenerator(mix),
		Seed:     seed,
	})
}

// TotalServed sums completed requests across back-end servers,
// including servers that died and were replaced under a fault plan.
func (c *Cluster) TotalServed() uint64 {
	n := c.retiredServed
	for _, s := range c.Servers {
		n += s.Served()
	}
	return n
}

// ApplyFaults installs a fault plan on the cluster and returns the
// armed injector. Node-level faults (crash/restart/freeze) come with
// the application-level consequences wired in: a crash kills the
// back-end's web server and monitoring agent along with every other
// task on the node; a restart boots fresh ones (new worker pool, new
// agent with a fresh memory registration) and points the monitor's
// prober at the new agent — the restarted back-end then earns its way
// out of quarantine through probation, probe by probe.
func (c *Cluster) ApplyFaults(plan faults.Plan) *faults.Injector {
	in := faults.NewInjector(c.Eng, plan)
	nodes := map[int]*simos.Node{0: c.Front}
	for i, n := range c.Backends {
		nodes[i+1] = n
	}
	for _, r := range c.FrontEnds {
		nodes[r.Node.ID] = r.Node
	}
	if c.Witness != nil {
		nodes[c.Witness.ID] = c.Witness
	}
	idx := func(node int) int {
		if node < 1 || node > len(c.Backends) {
			return -1
		}
		return node - 1
	}
	in.OnCrash = func(node int) {
		if r := c.replicaByNode(node); r != nil {
			// Node.Crash killed the monitor, dispatcher and claim tasks;
			// the claim words still name the dead holder, so another
			// replica seizes a new epoch after ExpireAfter of silence.
			r.down = true
			return
		}
		i := idx(node)
		if i < 0 {
			return
		}
		// Node.Crash already killed the tasks; mark the wrappers
		// stopped and drop the dead agent's memory registration so its
		// remote key goes invalid, as a real HCA would on power loss.
		if !c.Cfg.NoServers && c.Servers[i] != nil {
			c.retiredServed += c.Servers[i].Served()
			c.Servers[i].Stop()
		}
		c.Agents[i].Stop()
		if len(c.Pushers) > i && c.Pushers[i] != nil {
			// Node.Crash already killed the push task mid-flight; mark the
			// wrapper stopped so a landing completion does not restart it.
			c.Pushers[i].Stop()
			c.Pushers[i] = nil
		}
		// A crashed back-end takes its accept path with it: every
		// established QP targeting it goes to the error state, so
		// pooled monitors fence and redial instead of reading a ghost.
		// It draws no random numbers and visits only the QPs that
		// target this node (the node's NIC keeps that list), so it
		// costs nothing when nobody holds one, whatever the fleet size.
		c.Fab.ResetListener(node)
	}
	in.OnRestart = func(node int) {
		if r := c.replicaByNode(node); r != nil {
			c.restartReplica(r)
			return
		}
		i := idx(node)
		if i < 0 {
			return
		}
		n := c.Backends[i]
		nic := c.BNICs[i]
		if !c.Cfg.NoServers {
			c.Servers[i] = httpsim.StartServer(n, nic, c.serverConfig(i))
		}
		c.Agents[i] = core.StartAgent(n, nic, c.agentConfig(i))
		c.Monitor.ReplaceAgent(node, c.Agents[i])
		// Standby replicas track the reborn agent too.
		for _, r := range c.FrontEnds {
			if r.Monitor != c.Monitor {
				r.Monitor.ReplaceAgent(node, c.Agents[i])
			}
		}
		if c.Pushers != nil {
			c.startPusher(i)
		}
	}
	in.OnMRInvalidate = func(node int) {
		i := idx(node)
		if i < 0 {
			return
		}
		repin := c.Cfg.MRRepin
		if repin <= 0 {
			repin = 100 * sim.Millisecond
		}
		c.Agents[i].InvalidateMR(repin)
		// Under the hybrid scheme the same MR event also invalidates the
		// back-end's slot of the front-end aggregation region: pushes
		// fail until the slot re-pins with a fresh key, exactly like
		// probes against the agent's invalidated record region.
		for _, m := range c.monitors() {
			if m.Sink != nil {
				m.Sink.InvalidateSlot(node, repin)
			}
		}
	}
	in.Install(c.Fab, nodes)
	return in
}

// EnableAdmission installs an admission controller in front of the
// dispatcher, fed by the cluster's monitor (the paper's §1 use case).
// It reads the primary's dispatch View, so it sees back-ends exactly as
// dispatch does: quarantined nodes are no capacity at all, degraded
// ones carry the same index handicap the policy applies.
func (c *Cluster) EnableAdmission(cfg admission.Config) *admission.Controller {
	if c.Dispatcher == nil {
		panic("cluster: admission needs a dispatcher")
	}
	ctl := admission.New(cfg, c.view)
	c.Dispatcher.Admission = ctl.Admit
	return ctl
}

// StartTenantNoise launches wandering co-tenant CPU bursts across the
// back-ends (the shared-server scenario of the paper's introduction).
func (c *Cluster) StartTenantNoise(seed int64) *workload.TenantNoise {
	cfg := workload.NoiseDefaults()
	cfg.Seed = seed
	return workload.StartTenantNoise(c.Backends, cfg)
}
