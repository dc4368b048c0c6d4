// Package reconfig implements the paper's stated future work (§7): a
// dynamic reconfiguration module coupled with accurate resource
// monitoring. Two services share one cluster; each back-end is
// assigned to exactly one service, and a controller on the front-end
// watches the monitored per-group load and migrates nodes from the
// underloaded service to the overloaded one (in the style of the
// shared data-center reconfiguration work the paper cites, [8][9]).
//
// Reconfiguration quality is bounded by monitoring quality: a stale
// view migrates late (missing a burst) or spuriously (flapping nodes
// between services), and every migration costs a drain window in which
// the node serves nobody.
package reconfig

import (
	"rdmamon/internal/core"
	"rdmamon/internal/loadbalance"
	"rdmamon/internal/sim"
)

// Groups tracks which back-ends currently serve which service.
type Groups struct {
	A, B []int
	// Draining maps a node to the virtual time its migration
	// completes.
	Draining map[int]sim.Time
}

// Config tunes the controller.
type Config struct {
	Interval   sim.Time // how often the controller evaluates
	Threshold  float64  // index gap that triggers a migration
	MinNodes   int      // never shrink a group below this many nodes
	SwitchTime sim.Time // drain + restart window per migration
	Weights    core.Weights
}

// Defaults returns a controller that reacts within a couple of
// evaluation periods and keeps at least two nodes per service.
func Defaults() Config {
	return Config{
		Interval:   250 * sim.Millisecond,
		Threshold:  0.18,
		MinNodes:   2,
		SwitchTime: 500 * sim.Millisecond,
		Weights:    core.DefaultWeights(),
	}
}

// Controller performs monitored-load-driven node migration between two
// services.
type Controller struct {
	Cfg Config

	eng    *sim.Engine
	source loadbalance.LoadSource
	groups *Groups
	apply  func() // pushes current groups into the two policies

	// Migrations counts completed node moves; AtoB/BtoA break it down.
	Migrations uint64
	AtoB       uint64
	BtoA       uint64
}

// New creates and starts a controller.
//
// source supplies the newest load record per backend (usually the
// cluster monitor). groups is the initial assignment (taken over by
// the controller). apply is invoked, in simulation context, whenever
// membership changes; it must copy groups.A/groups.B into the two
// dispatch policies.
func New(eng *sim.Engine, cfg Config, source loadbalance.LoadSource, groups *Groups, apply func()) *Controller {
	d := Defaults()
	if cfg.Interval <= 0 {
		cfg.Interval = d.Interval
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = d.Threshold
	}
	if cfg.MinNodes <= 0 {
		cfg.MinNodes = d.MinNodes
	}
	if cfg.SwitchTime <= 0 {
		cfg.SwitchTime = d.SwitchTime
	}
	if cfg.Weights == (core.Weights{}) {
		cfg.Weights = d.Weights
	}
	if groups.Draining == nil {
		groups.Draining = make(map[int]sim.Time)
	}
	c := &Controller{Cfg: cfg, eng: eng, source: source, groups: groups, apply: apply}
	eng.NewTicker(cfg.Interval, c.evaluate)
	apply()
	return c
}

// GroupLoad returns the mean load index of a group's nodes (0 if none,
// or no records yet).
func (c *Controller) GroupLoad(group []int) float64 {
	if len(group) == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, b := range group {
		if rec, ok := c.source(b); ok {
			sum += c.Cfg.Weights.IndexOf(&rec)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (c *Controller) evaluate() {
	la := c.GroupLoad(c.groups.A)
	lb := c.GroupLoad(c.groups.B)
	switch {
	case la-lb > c.Cfg.Threshold && len(c.groups.B) > c.Cfg.MinNodes:
		c.migrate(&c.groups.B, &c.groups.A, &c.BtoA)
	case lb-la > c.Cfg.Threshold && len(c.groups.A) > c.Cfg.MinNodes:
		c.migrate(&c.groups.A, &c.groups.B, &c.AtoB)
	}
}

// migrate removes the least-loaded node of the (non-empty) donor group,
// drains it for SwitchTime, then adds it to the receiver group.
func (c *Controller) migrate(from, to *[]int, counter *uint64) {
	// Choose the donor's least-loaded node: cheapest to drain.
	best, bestIdx := -1, 0.0
	for _, b := range *from {
		idx := 0.0
		if rec, ok := c.source(b); ok {
			idx = c.Cfg.Weights.IndexOf(&rec)
		}
		if best < 0 || idx < bestIdx {
			best, bestIdx = b, idx
		}
	}
	node := best
	*from = remove(*from, node)
	c.groups.Draining[node] = c.eng.Now() + c.Cfg.SwitchTime
	c.apply()
	c.eng.After(c.Cfg.SwitchTime, func() {
		delete(c.groups.Draining, node)
		*to = append(*to, node)
		c.Migrations++
		*counter++
		c.apply()
	})
}

func remove(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
