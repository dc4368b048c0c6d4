// Package ganglia models the Ganglia distributed monitoring system as
// used in the paper's §5.2.2 experiment: a gmond daemon on every node
// multicasting periodic metric reports to its peers, plus the gmetric
// tool through which arbitrary user metrics — here, the fine-grained
// load records collected by a monitoring scheme — are injected into
// the ganglia group.
//
// What matters for the experiment is the *perturbation* this machinery
// causes on the back-ends at a given metric granularity; the package
// therefore models gmond's collection cost, the multicast fan-out and
// the receive processing on every member.
package ganglia

import (
	"fmt"
	"sort"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

// Port names used by the ganglia group.
const (
	GmondPort   = "gmond"
	GmetricPort = "gmetric"
)

// Config shapes the ganglia deployment.
type Config struct {
	Group       string   // multicast group name
	Interval    sim.Time // gmond base metric interval
	CollectCost sim.Time // gmond per-round collection + XML cost
	RecvCost    sim.Time // processing per received metric packet
	PacketSize  int
	PublishCost sim.Time // gmetric per-publication cost

	// PublishMinInterval rate-limits gmetric publication per source:
	// ganglia propagates metrics on its own cadence, so even a
	// millisecond-granularity collector is decimated before it hits
	// the multicast group.
	PublishMinInterval sim.Time
}

// Defaults returns a deployment matching ganglia's defaults (metrics
// every few seconds; the fine-grained channel comes from gmetric).
func Defaults() Config {
	return Config{
		Group:              "ganglia",
		Interval:           sim.Second,
		CollectCost:        250 * sim.Microsecond,
		RecvCost:           25 * sim.Microsecond,
		PacketSize:         800,
		PublishCost:        40 * sim.Microsecond,
		PublishMinInterval: 50 * sim.Millisecond,
	}
}

// Gmond is one node's ganglia daemon.
type Gmond struct {
	// Received counts metric packets processed from the group.
	Received uint64
	// Rounds counts local collection rounds completed.
	Rounds uint64
}

func startGmond(node *simos.Node, nic *simnet.NIC, cfg Config) *Gmond {
	g := &Gmond{}
	port := node.Port(GmondPort)
	// Collector: gather local metrics and multicast them.
	node.Spawn("gmond-collect", func(tk *simos.Task) {
		var loop func()
		loop = func() {
			tk.Compute(cfg.CollectCost, func() {
				g.Rounds++
				nic.Multicast(tk, cfg.Group, cfg.PacketSize, gmondPacket{From: node.ID}, func() {
					tk.Sleep(cfg.Interval, loop)
				})
			})
		}
		loop()
	})
	// Receiver: drain and process packets from peers.
	node.Spawn("gmond-recv", func(tk *simos.Task) {
		var serve func(m simos.Message)
		serve = func(m simos.Message) {
			tk.Compute(cfg.RecvCost, func() {
				g.Received++
				tk.Recv(port, serve)
			})
		}
		tk.Recv(port, serve)
	})
	return g
}

type gmondPacket struct{ From int }

// Gmetric is the metric-injection tool, hosted on one node (the
// front-end in the paper's setup): metrics handed to Publish are
// multicast to the ganglia group from a dedicated publisher task.
type Gmetric struct {
	node *simos.Node
	port *simos.Port

	// Published counts metrics multicast to the group.
	Published uint64
}

func startGmetric(node *simos.Node, nic *simnet.NIC, cfg Config) *Gmetric {
	gm := &Gmetric{node: node, port: node.Port(GmetricPort)}
	node.Spawn("gmetric", func(tk *simos.Task) {
		var serve func(m simos.Message)
		serve = func(m simos.Message) {
			tk.Compute(cfg.PublishCost, func() {
				nic.Multicast(tk, cfg.Group, cfg.PacketSize, m.Payload, func() {
					gm.Published++
					tk.Recv(gm.port, serve)
				})
			})
		}
		tk.Recv(gm.port, serve)
	})
	return gm
}

// Publish hands a metric to the publisher task (local IPC).
func (g *Gmetric) Publish(v any) {
	g.port.Deliver(simos.Message{From: g.node.ID, Payload: v})
}

// System is a deployed ganglia group.
type System struct {
	Cfg     Config
	Gmonds  []*Gmond
	Gmetric *Gmetric
}

// Deploy installs gmond on every node and gmetric on nodes[0] (the
// front-end). All of them join the multicast group.
func Deploy(fab *simnet.Fabric, nodes []*simos.Node, nics []*simnet.NIC, cfg Config) *System {
	if cfg.Group == "" {
		cfg = Defaults()
	}
	if len(nodes) == 0 || len(nodes) != len(nics) {
		panic(fmt.Sprintf("ganglia: bad deployment: %d nodes, %d nics", len(nodes), len(nics)))
	}
	s := &System{Cfg: cfg}
	for i, n := range nodes {
		fab.JoinGroup(cfg.Group, n.ID, GmondPort)
		s.Gmonds = append(s.Gmonds, startGmond(n, nics[i], cfg))
	}
	s.Gmetric = startGmetric(nodes[0], nics[0], cfg)
	return s
}

// WireFineGrained connects a monitoring scheme's front-end monitor to
// gmetric: every load record a prober receives is published to the
// ganglia group, which is how the paper's gmetric supports
// fine-grained monitoring (§5.2.2). Existing OnRecord hooks are
// preserved.
func (s *System) WireFineGrained(mon *core.Monitor) {
	for _, p := range mon.Probers {
		prev := p.OnRecord
		var lastPub sim.Time = -1 << 62
		minEvery := s.Cfg.PublishMinInterval
		p.OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			if prev != nil {
				prev(rec, at)
			}
			if at-lastPub >= minEvery {
				lastPub = at
				s.Gmetric.Publish(rec)
			}
		}
	}
}

// StatusMetric is the coarse health/failover channel riding the same
// gmetric path as the fine-grained load records: which transport each
// back-end is being monitored over and what the monitor currently
// thinks of its health. Operators thereby see "node 5 went Degraded on
// the socket path" in the same tool that shows the load curves.
type StatusMetric struct {
	Kind      string // "backend"
	Node      int    // back-end ID
	Health    string // back-end health verdict
	Transport string // transport serving the back-end's probes
}

// WireStatus publishes each back-end's health verdict and active
// monitoring transport to the ganglia group. The monitor is scanned
// every `every` (PublishMinInterval when zero) and only *changes* are
// published, so a stable cluster costs one packet per back-end at
// start-up and a failover or quarantine costs one per transition.
// Back-ends are scanned in ID order so the publication stream is
// deterministic. Returns the ticker so callers can stop it.
func (s *System) WireStatus(mon *core.Monitor, every sim.Time) *sim.Ticker {
	if every <= 0 {
		every = s.Cfg.PublishMinInterval
	}
	ids := make([]int, 0, len(mon.Probers))
	for b := range mon.Probers {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	last := make(map[int]StatusMetric, len(ids))
	return s.Gmetric.node.Eng.NewTicker(every, func() {
		for _, b := range ids {
			m := StatusMetric{
				Kind:      "backend",
				Node:      b,
				Health:    mon.Health(b).String(),
				Transport: mon.Probers[b].LastTransport.String(),
			}
			if last[b] != m {
				last[b] = m
				s.Gmetric.Publish(m)
			}
		}
	})
}
